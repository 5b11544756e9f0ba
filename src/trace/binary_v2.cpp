/// \file binary_v2.cpp
/// Block-based PVTF v2 codec (see docs/FORMAT.md for the layout).
///
/// Design goals, in order:
///   1. Independently decodable per-process blocks: every block carries
///      its own event count, byte extent and FNV-1a checksum in the block
///      table, so blocks decode in parallel straight out of a memory
///      mapping with no cross-block state.
///   2. Checksums over buffers, not streams: one tight loop per block
///      instead of the v1 per-byte virtual istream hashing.
///   3. No regression in file size: the event encoding folds small `ref`
///      values into the tag byte (saving one byte for the overwhelmingly
///      common refs < 31), which pays for the fixed block table many
///      times over on any non-trivial trace.
///
/// Determinism: blocks are encoded/decoded independently and assembled in
/// process order on the calling thread, so the bytes written and the
/// Trace read are identical for every thread count.

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "trace/binary_format.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace perfvar::trace::detail {

namespace {

// Fixed-width file offsets (absolute, from the start of the file):
//   0  magic "PVTF"        4 B
//   4  version u32 LE      = 2
//   8  header hash u64 LE  FNV-1a over [16, 48 + 32 * P)
//  16  resolution u64 LE
//  24  process count u64 LE (P)
//  32  defs size u64 LE
//  40  defs hash u64 LE    FNV-1a over the definitions block
//  48  block table         P entries x 32 B
//  48 + 32 * P             definitions block, then P event blocks
constexpr std::size_t kHeaderHashOffset = 8;
constexpr std::size_t kFixedHeaderOffset = 16;
constexpr std::size_t kTableOffset = 48;
constexpr std::size_t kTableEntrySize = 32;

/// In the tag byte, bits 0-2 hold the EventKind and bits 3-7 a small
/// `ref`; kRefEscape means "ref is a varint after the timestamp delta".
constexpr std::uint32_t kRefEscape = 31;

struct TableEntry {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t events = 0;
  std::uint64_t hash = 0;
};

std::uint64_t fnv1a(const unsigned char* data, std::size_t n) {
  return util::Hasher{}.bytes(data, n).digest();
}

// ---- buffer primitives ----------------------------------------------------

void putU64LE(std::string& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::uint64_t getU64LE(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

/// Append-only encoder over a std::string buffer.
class BufferWriter {
public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void varint(std::uint64_t v) {
    do {
      unsigned char b = static_cast<unsigned char>(v & 0x7F);
      v >>= 7;
      if (v != 0) {
        b |= 0x80;
      }
      buf_.push_back(static_cast<char>(b));
    } while (v != 0);
  }

  void f64(double v) { putU64LE(buf_, std::bit_cast<std::uint64_t>(v)); }

  void string(const std::string& s) {
    varint(s.size());
    buf_.append(s);
  }

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

private:
  std::string buf_;
};

}  // namespace

std::uint64_t decodeVarintScalar(const unsigned char*& p,
                                 const unsigned char* end) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    PERFVAR_REQUIRE_E(shift < 64, "binary trace v2: varint too long",
                      ErrorContext::at(ErrorCode::MalformedEvent));
    PERFVAR_REQUIRE_E(p < end, "binary trace v2: truncated block",
                      ErrorContext::at(ErrorCode::TruncatedInput));
    const std::uint8_t b = *p++;
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      break;
    }
    shift += 7;
  }
  return v;
}

std::uint64_t decodeVarint(const unsigned char*& p, const unsigned char* end) {
  // Fast path: with the 10-byte maximum encoding fully in bounds, the
  // unrolled decode needs no per-byte range check. The property tests in
  // tests/trace_binary_v2_test.cpp pin it byte-for-byte (value, cursor
  // advance, error classification) against the scalar loop above.
  if (end - p >= 10) {
    const unsigned char* q = p;
    std::uint64_t v = static_cast<std::uint64_t>(q[0] & 0x7F);
    if ((q[0] & 0x80) == 0) {
      p = q + 1;
      return v;
    }
    v |= static_cast<std::uint64_t>(q[1] & 0x7F) << 7;
    if ((q[1] & 0x80) == 0) {
      p = q + 2;
      return v;
    }
    v |= static_cast<std::uint64_t>(q[2] & 0x7F) << 14;
    if ((q[2] & 0x80) == 0) {
      p = q + 3;
      return v;
    }
    v |= static_cast<std::uint64_t>(q[3] & 0x7F) << 21;
    if ((q[3] & 0x80) == 0) {
      p = q + 4;
      return v;
    }
    v |= static_cast<std::uint64_t>(q[4] & 0x7F) << 28;
    if ((q[4] & 0x80) == 0) {
      p = q + 5;
      return v;
    }
    v |= static_cast<std::uint64_t>(q[5] & 0x7F) << 35;
    if ((q[5] & 0x80) == 0) {
      p = q + 6;
      return v;
    }
    v |= static_cast<std::uint64_t>(q[6] & 0x7F) << 42;
    if ((q[6] & 0x80) == 0) {
      p = q + 7;
      return v;
    }
    v |= static_cast<std::uint64_t>(q[7] & 0x7F) << 49;
    if ((q[7] & 0x80) == 0) {
      p = q + 8;
      return v;
    }
    v |= static_cast<std::uint64_t>(q[8] & 0x7F) << 56;
    if ((q[8] & 0x80) == 0) {
      p = q + 9;
      return v;
    }
    // Tenth byte: shift 63 like the scalar loop (high bits of an overlong
    // final byte drop); a continuation bit here means the encoding would
    // run past 64 value bits, the scalar loop's MalformedEvent case.
    v |= static_cast<std::uint64_t>(q[9] & 0x7F) << 63;
    PERFVAR_REQUIRE_E((q[9] & 0x80) == 0, "binary trace v2: varint too long",
                      ErrorContext::at(ErrorCode::MalformedEvent));
    p = q + 10;
    return v;
  }
  return decodeVarintScalar(p, end);
}

namespace {

/// Bounds-checked decoder over a byte range; every overrun throws
/// perfvar::Error (the fuzz contract: corrupt inputs never crash).
class ByteCursor {
public:
  ByteCursor(const unsigned char* begin, const unsigned char* end)
      : p_(begin), end_(end) {}

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool atEnd() const { return p_ == end_; }

  std::uint8_t u8() {
    PERFVAR_REQUIRE_E(p_ < end_, "binary trace v2: truncated block",
                      ErrorContext::at(ErrorCode::TruncatedInput));
    return *p_++;
  }

  std::uint64_t varint() { return decodeVarint(p_, end_); }

  double f64() {
    PERFVAR_REQUIRE_E(remaining() >= 8, "binary trace v2: truncated block",
                      ErrorContext::at(ErrorCode::TruncatedInput));
    const std::uint64_t bits = getU64LE(p_);
    p_ += 8;
    return std::bit_cast<double>(bits);
  }

  std::string string() {
    const std::uint64_t n = varint();
    PERFVAR_REQUIRE_E(n < (1ULL << 24), "binary trace v2: oversized string",
                      ErrorContext::at(ErrorCode::MalformedEvent));
    PERFVAR_REQUIRE_E(remaining() >= n, "binary trace v2: truncated string",
                      ErrorContext::at(ErrorCode::TruncatedInput));
    std::string s(reinterpret_cast<const char*>(p_),
                  static_cast<std::size_t>(n));
    p_ += n;
    return s;
  }

  /// Current read position (for salvage byte accounting).
  const unsigned char* pos() const { return p_; }

private:
  const unsigned char* p_;
  const unsigned char* end_;
};

// ---- block codecs ---------------------------------------------------------

std::string encodeDefs(const Trace& trace) {
  std::vector<std::string> names;
  names.reserve(trace.processes.size());
  for (const ProcessTrace& p : trace.processes) {
    names.push_back(p.name);
  }
  return encodeV2Defs(trace.functions, trace.metrics, names);
}

std::string encodeEvents(const ProcessTrace& process) {
  return encodeV2Events(process.events.data(), process.events.size());
}

/// Decode one event at the cursor, accumulating the delta-encoded
/// timestamp into `last`. Throws on any malformed or truncated content.
void decodeOneEvent(ByteCursor& c, Timestamp& last, Event& e) {
  const std::uint8_t tag = c.u8();
  const auto kind = static_cast<EventKind>(tag & 0x07);
  PERFVAR_REQUIRE_E(kind <= EventKind::Metric,
                    "binary trace v2: invalid event kind",
                    ErrorContext::at(ErrorCode::MalformedEvent));
  e.kind = kind;
  last += c.varint();
  e.time = last;
  const std::uint32_t refLo = tag >> 3;
  e.ref = refLo == kRefEscape
              ? static_cast<std::uint32_t>(c.varint())
              : refLo;
  switch (kind) {
    case EventKind::Enter:
    case EventKind::Leave:
      break;
    case EventKind::MpiSend:
    case EventKind::MpiRecv:
      e.aux = static_cast<std::uint32_t>(c.varint());
      e.size = c.varint();
      break;
    case EventKind::Metric:
      e.value = c.f64();
      break;
  }
}

void decodeEvents(const unsigned char* begin, const unsigned char* end,
                  std::uint64_t count, std::vector<Event>& out) {
  // Every event is at least two bytes (tag + delta), so a valid count
  // can never exceed half the block; reserving is then safe even before
  // the events are decoded.
  PERFVAR_REQUIRE_E(count <= static_cast<std::uint64_t>(end - begin) / 2,
                    "binary trace v2: event count exceeds block size",
                    ErrorContext::at(ErrorCode::MalformedEvent));
  out.reserve(static_cast<std::size_t>(count));
  ByteCursor c(begin, end);
  Timestamp last = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    Event e;
    decodeOneEvent(c, last, e);
    out.push_back(e);
  }
  PERFVAR_REQUIRE_E(c.atEnd(), "binary trace v2: trailing bytes in block",
                    ErrorContext::at(ErrorCode::MalformedEvent));
}

/// Best-effort decode of a (possibly corrupt or truncated) block prefix:
/// keep whole events until the first decode failure or `maxCount` events.
/// Growth is bounded by the byte range (every event is >= 2 bytes).
/// Returns the encoded bytes consumed by the events kept.
std::size_t decodeEventsLenient(const unsigned char* begin,
                                const unsigned char* end,
                                std::uint64_t maxCount,
                                std::vector<Event>& out) {
  ByteCursor c(begin, end);
  Timestamp last = 0;
  std::size_t consumed = 0;
  while (!c.atEnd() && out.size() < maxCount) {
    Event e;
    try {
      decodeOneEvent(c, last, e);
    } catch (const Error&) {
      break;
    }
    out.push_back(e);
    consumed = static_cast<std::size_t>(c.pos() - begin);
  }
  return consumed;
}

// ---- header parsing -------------------------------------------------------

struct V2Layout {
  std::uint64_t resolution = 0;
  std::uint64_t defsOffset = 0;
  std::uint64_t defsSize = 0;
  std::vector<TableEntry> table;
  /// Per-entry extent fault (lenient parses only; ErrorCode::None = sane).
  std::vector<ErrorCode> blockFault;
};

/// Validate the prologue-to-table region of a v2 image (bounds + header
/// hash + defs hash) and return the parsed layout. The header, table and
/// definitions must verify even when `lenientBlocks` is set (they are the
/// trust root of a salvage load); lenient parses record per-entry extent
/// faults in blockFault instead of throwing.
V2Layout parseHeader(const unsigned char* image, std::size_t size,
                     bool lenientBlocks = false) {
  PERFVAR_REQUIRE_E(size >= kTableOffset, "binary trace v2: truncated header",
                    ErrorContext::at(ErrorCode::TruncatedInput, size));
  V2Layout layout;
  const std::uint64_t storedHeaderHash = getU64LE(image + kHeaderHashOffset);
  layout.resolution = getU64LE(image + kFixedHeaderOffset);
  const std::uint64_t nProcs = getU64LE(image + 24);
  layout.defsSize = getU64LE(image + 32);
  const std::uint64_t storedDefsHash = getU64LE(image + 40);

  PERFVAR_REQUIRE_E(nProcs >= 1 && nProcs < (1ULL << 24),
                    "binary trace v2: invalid process count",
                    ErrorContext::at(ErrorCode::MalformedEvent, 24));
  const std::uint64_t tableBytes = nProcs * kTableEntrySize;
  PERFVAR_REQUIRE_E(kTableOffset + tableBytes <= size,
                    "binary trace v2: truncated block table",
                    ErrorContext::at(ErrorCode::TruncatedInput, size));
  const std::uint64_t headerBytes = kTableOffset + tableBytes -
                                    kFixedHeaderOffset;
  PERFVAR_REQUIRE_E(
      fnv1a(image + kFixedHeaderOffset,
            static_cast<std::size_t>(headerBytes)) == storedHeaderHash,
      "binary trace v2: header checksum mismatch",
      ErrorContext::at(ErrorCode::ChecksumMismatch, kHeaderHashOffset));

  // Everything below is authenticated by the header hash.
  PERFVAR_REQUIRE_E(layout.resolution > 0, "binary trace v2: zero resolution",
                    ErrorContext::at(ErrorCode::MalformedEvent,
                                     kFixedHeaderOffset));
  layout.defsOffset = kTableOffset + tableBytes;
  PERFVAR_REQUIRE_E(layout.defsOffset + layout.defsSize <= size,
                    "binary trace v2: truncated definitions block",
                    ErrorContext::at(ErrorCode::TruncatedInput, size));
  PERFVAR_REQUIRE_E(
      fnv1a(image + layout.defsOffset,
            static_cast<std::size_t>(layout.defsSize)) == storedDefsHash,
      "binary trace v2: definitions checksum mismatch",
      ErrorContext::at(ErrorCode::ChecksumMismatch, 40));

  layout.table.resize(static_cast<std::size_t>(nProcs));
  layout.blockFault.assign(layout.table.size(), ErrorCode::None);
  const std::uint64_t defsEnd = layout.defsOffset + layout.defsSize;
  for (std::size_t i = 0; i < layout.table.size(); ++i) {
    const std::uint64_t entryOffset = kTableOffset + i * kTableEntrySize;
    const unsigned char* entry = image + entryOffset;
    TableEntry& t = layout.table[i];
    t.offset = getU64LE(entry);
    t.size = getU64LE(entry + 8);
    t.events = getU64LE(entry + 16);
    t.hash = getU64LE(entry + 24);
    const bool noOverflow = t.offset + t.size >= t.offset;
    const bool sane = t.offset >= defsEnd && noOverflow;
    const bool inFile = sane && t.offset + t.size <= size;
    if (inFile) {
      continue;
    }
    // A sane extent reaching past the end of the file is a truncation
    // (salvage can decode the present prefix); anything else is garbage.
    const ErrorCode code = sane ? ErrorCode::TruncatedInput
                                : ErrorCode::MalformedEvent;
    PERFVAR_REQUIRE_E(lenientBlocks,
                      "binary trace v2: block extent out of range",
                      ErrorContext::at(code, entryOffset,
                                       static_cast<std::int64_t>(i)));
    layout.blockFault[i] = code;
  }
  return layout;
}

/// Decode the definitions block (functions, metrics, process names).
std::vector<std::string> decodeDefs(const unsigned char* image,
                                    const V2Layout& layout, Trace& trace) {
  ByteCursor c(image + layout.defsOffset,
               image + layout.defsOffset + layout.defsSize);
  const std::uint64_t nFuncs = c.varint();
  PERFVAR_REQUIRE_E(nFuncs < (1ULL << 24),
                    "binary trace v2: too many functions",
                    ErrorContext::at(ErrorCode::MalformedEvent));
  for (std::uint64_t i = 0; i < nFuncs; ++i) {
    const std::string name = c.string();
    const std::string group = c.string();
    const auto paradigm = static_cast<Paradigm>(c.u8());
    PERFVAR_REQUIRE_E(paradigm <= Paradigm::Other,
                      "binary trace v2: invalid paradigm",
                      ErrorContext::at(ErrorCode::MalformedEvent));
    trace.functions.intern(name, group, paradigm);
  }
  const std::uint64_t nMetrics = c.varint();
  PERFVAR_REQUIRE_E(nMetrics < (1ULL << 24),
                    "binary trace v2: too many metrics",
                    ErrorContext::at(ErrorCode::MalformedEvent));
  for (std::uint64_t i = 0; i < nMetrics; ++i) {
    const std::string name = c.string();
    const std::string unit = c.string();
    const auto mode = static_cast<MetricMode>(c.u8());
    PERFVAR_REQUIRE_E(mode <= MetricMode::Absolute,
                      "binary trace v2: invalid metric mode",
                      ErrorContext::at(ErrorCode::MalformedEvent));
    trace.metrics.intern(name, unit, mode);
  }
  std::vector<std::string> names;
  names.reserve(layout.table.size());
  for (std::size_t i = 0; i < layout.table.size(); ++i) {
    names.push_back(c.string());
  }
  PERFVAR_REQUIRE_E(c.atEnd(),
                    "binary trace v2: trailing bytes in definitions block",
                    ErrorContext::at(ErrorCode::MalformedEvent));
  return names;
}

}  // namespace

std::string encodeV2Defs(const FunctionRegistry& functions,
                         const MetricRegistry& metrics,
                         const std::vector<std::string>& processNames) {
  BufferWriter w;
  w.varint(functions.size());
  for (const FunctionDef& f : functions.all()) {
    w.string(f.name);
    w.string(f.group);
    w.u8(static_cast<std::uint8_t>(f.paradigm));
  }
  w.varint(metrics.size());
  for (const MetricDef& m : metrics.all()) {
    w.string(m.name);
    w.string(m.unit);
    w.u8(static_cast<std::uint8_t>(m.mode));
  }
  for (const std::string& name : processNames) {
    w.string(name);
  }
  return w.take();
}

std::string encodeV2Events(const Event* events, std::size_t count) {
  BufferWriter w;
  Timestamp last = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Event& e = events[i];
    const std::uint32_t refLo = std::min(e.ref, kRefEscape);
    w.u8(static_cast<std::uint8_t>(
        static_cast<std::uint32_t>(e.kind) | (refLo << 3)));
    w.varint(e.time - last);
    last = e.time;
    if (refLo == kRefEscape) {
      w.varint(e.ref);
    }
    switch (e.kind) {
      case EventKind::Enter:
      case EventKind::Leave:
        break;
      case EventKind::MpiSend:
      case EventKind::MpiRecv:
        w.varint(e.aux);
        w.varint(e.size);
        break;
      case EventKind::Metric:
        w.f64(e.value);
        break;
    }
  }
  return w.take();
}

V2Summary parseV2Summary(const unsigned char* image, std::size_t size,
                         bool lenientBlocks) {
  const V2Layout layout = parseHeader(image, size, lenientBlocks);
  V2Summary summary;
  summary.resolution = layout.resolution;
  Trace defsOnly;
  summary.processNames = decodeDefs(image, layout, defsOnly);
  summary.functions = std::move(defsOnly.functions);
  summary.metrics = std::move(defsOnly.metrics);
  summary.blocks.resize(layout.table.size());
  for (std::size_t i = 0; i < layout.table.size(); ++i) {
    V2BlockExtent& b = summary.blocks[i];
    b.offset = layout.table[i].offset;
    b.size = layout.table[i].size;
    b.events = layout.table[i].events;
    b.hash = layout.table[i].hash;
    b.fault = layout.blockFault[i];
  }
  return summary;
}

void decodeV2Block(const unsigned char* image, const V2BlockExtent& extent,
                   ProcessId rank, std::vector<Event>& out) {
  const unsigned char* block = image + extent.offset;
  PERFVAR_REQUIRE_E(
      fnv1a(block, static_cast<std::size_t>(extent.size)) == extent.hash,
      "binary trace v2: block checksum mismatch",
      ErrorContext::at(ErrorCode::ChecksumMismatch, extent.offset,
                       static_cast<std::int64_t>(rank)));
  decodeEvents(block, block + extent.size, extent.events, out);
}

void salvageV2Block(const unsigned char* image, std::size_t fileSize,
                    const V2BlockExtent& extent, ProcessId rank,
                    std::size_t functionCount, std::size_t metricCount,
                    std::size_t processCount, RankLoadStatus& status,
                    std::vector<Event>& out) {
  status.bytesTotal = extent.size;
  status.eventsDeclared = extent.events;
  ErrorCode fault = extent.fault;
  if (fault == ErrorCode::None) {
    const unsigned char* block = image + extent.offset;
    if (fnv1a(block, static_cast<std::size_t>(extent.size)) == extent.hash) {
      try {
        decodeEvents(block, block + extent.size, extent.events, out);
        status.ok = true;
        status.error = ErrorCode::None;
        status.bytesSalvaged = extent.size;
        status.eventsSalvaged = extent.events;
        return;  // rank is healthy
      } catch (const Error& e) {
        fault = e.code() == ErrorCode::Generic ? ErrorCode::MalformedEvent
                                               : e.code();
        out.clear();
      }
    } else {
      fault = ErrorCode::ChecksumMismatch;
    }
    status.bytesSalvaged = decodeEventsLenient(block, block + extent.size,
                                               extent.events, out);
  } else if (fault == ErrorCode::TruncatedInput && extent.offset < fileSize) {
    // Tail block cut off mid-write: decode the bytes that made it.
    const unsigned char* block = image + extent.offset;
    status.bytesSalvaged = decodeEventsLenient(block, image + fileSize,
                                               extent.events, out);
  }
  status.ok = false;
  status.error = fault;
  status.eventsSalvaged = balanceSalvagedEvents(
      out, functionCount, metricCount, processCount, rank);
  status.eventsDropped = extent.events > status.eventsSalvaged
                             ? extent.events - status.eventsSalvaged
                             : 0;
}

void writeBinaryV2(const Trace& trace, std::ostream& out,
                   const BinaryWriteOptions& options) {
  const std::size_t nProcs = trace.processes.size();
  const std::string defs = encodeDefs(trace);

  // Encode all event blocks (in parallel when requested; each task fills
  // only its own slot, so the bytes are thread-count independent).
  std::vector<std::string> blocks(nProcs);
  std::vector<std::uint64_t> hashes(nProcs, 0);
  std::unique_ptr<util::ThreadPool> owned;
  util::ThreadPool* pool = util::resolvePool(nullptr, options.threads, owned);
  util::parallelChunks(pool, nProcs,
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           blocks[i] = encodeEvents(trace.processes[i]);
                           hashes[i] = fnv1a(
                               reinterpret_cast<const unsigned char*>(
                                   blocks[i].data()),
                               blocks[i].size());
                         }
                       });

  // Assemble header + table.
  std::string header;  // bytes [16, 48 + 32 * P)
  header.reserve(kTableOffset - kFixedHeaderOffset +
                 nProcs * kTableEntrySize);
  putU64LE(header, trace.resolution);
  putU64LE(header, nProcs);
  putU64LE(header, defs.size());
  putU64LE(header, fnv1a(reinterpret_cast<const unsigned char*>(defs.data()),
                         defs.size()));
  std::uint64_t offset = kTableOffset + nProcs * kTableEntrySize +
                         defs.size();
  for (std::size_t i = 0; i < nProcs; ++i) {
    putU64LE(header, offset);
    putU64LE(header, blocks[i].size());
    putU64LE(header, trace.processes[i].events.size());
    putU64LE(header, hashes[i]);
    offset += blocks[i].size();
  }

  std::string prologue;
  prologue.append(kBinaryMagic, 4);
  for (int i = 0; i < 4; ++i) {
    prologue.push_back(
        static_cast<char>((kBinaryFormatV2 >> (8 * i)) & 0xFF));
  }
  putU64LE(prologue,
           fnv1a(reinterpret_cast<const unsigned char*>(header.data()),
                 header.size()));

  out.write(prologue.data(), static_cast<std::streamsize>(prologue.size()));
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(defs.data(), static_cast<std::streamsize>(defs.size()));
  for (const std::string& block : blocks) {
    out.write(block.data(), static_cast<std::streamsize>(block.size()));
  }
  PERFVAR_REQUIRE(out.good(), "binary trace v2: write failed");
}

Trace readBinaryV2(const unsigned char* image, std::size_t size,
                   const BinaryReadOptions& options, BinaryFileInfo* info) {
  const V2Layout layout = parseHeader(image, size);
  Trace trace;
  trace.resolution = layout.resolution;
  const std::vector<std::string> names = decodeDefs(image, layout, trace);

  trace.processes.resize(layout.table.size());
  std::unique_ptr<util::ThreadPool> owned;
  util::ThreadPool* pool = util::resolvePool(nullptr, options.threads, owned);
  // Per-rank decode, zero-copy out of the image; every task verifies and
  // fills only its own process slot, and reassembly order is fixed by the
  // table, so the result is identical for every thread count.
  util::parallelChunks(
      pool, layout.table.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const TableEntry& t = layout.table[i];
          const V2BlockExtent extent{t.offset, t.size, t.events, t.hash,
                                     ErrorCode::None};
          trace.processes[i].name = names[i];
          decodeV2Block(image, extent, static_cast<ProcessId>(i),
                        trace.processes[i].events);
        }
      });

  if (info != nullptr) {
    info->version = kBinaryFormatV2;
    info->resolution = layout.resolution;
    info->eventCount = trace.eventCount();
    for (std::size_t i = 0; i < layout.table.size(); ++i) {
      info->blocks.push_back(BinaryBlockInfo{
          names[i], layout.table[i].events, layout.table[i].size,
          layout.table[i].offset});
    }
  }
  return trace;
}

std::size_t balanceSalvagedEvents(std::vector<Event>& events,
                                  std::size_t functionCount,
                                  std::size_t metricCount,
                                  std::size_t processCount, ProcessId self) {
  std::vector<std::uint32_t> open;  // refs of currently open Enter frames
  std::size_t keep = 0;
  for (const Event& e : events) {
    bool sane = true;
    switch (e.kind) {
      case EventKind::Enter:
        sane = e.ref < functionCount;
        if (sane) {
          open.push_back(e.ref);
        }
        break;
      case EventKind::Leave:
        sane = e.ref < functionCount && !open.empty() &&
               open.back() == e.ref;
        if (sane) {
          open.pop_back();
        }
        break;
      case EventKind::MpiSend:
      case EventKind::MpiRecv:
        sane = e.ref < processCount && e.ref != self;
        break;
      case EventKind::Metric:
        sane = e.ref < metricCount;
        break;
    }
    if (!sane) {
      break;
    }
    ++keep;
  }
  events.resize(keep);
  const Timestamp last = keep > 0 ? events[keep - 1].time : 0;
  for (auto it = open.rbegin(); it != open.rend(); ++it) {
    Event close;
    close.kind = EventKind::Leave;
    close.time = last;
    close.ref = *it;
    events.push_back(close);
  }
  return keep;
}

Trace readBinaryV2Salvage(const unsigned char* image, std::size_t size,
                          const BinaryReadOptions& options,
                          LoadReport& report) {
  const V2Layout layout = parseHeader(image, size, /*lenientBlocks=*/true);
  Trace trace;
  trace.resolution = layout.resolution;
  const std::vector<std::string> names = decodeDefs(image, layout, trace);

  const std::size_t nProcs = layout.table.size();
  trace.processes.resize(nProcs);
  report.version = kBinaryFormatV2;
  report.mode = RecoveryMode::Salvage;
  report.ranks.assign(nProcs, RankLoadStatus{});

  std::unique_ptr<util::ThreadPool> owned;
  util::ThreadPool* pool = util::resolvePool(nullptr, options.threads, owned);
  // Same rank-sharded shape as the strict reader: every task verifies,
  // decodes (or salvages) and reports only its own process slot, so the
  // result is identical for every thread count.
  util::parallelChunks(pool, nProcs, [&](std::size_t begin,
                                            std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const TableEntry& t = layout.table[i];
      RankLoadStatus& st = report.ranks[i];
      st.process = names[i];
      trace.processes[i].name = names[i];
      const V2BlockExtent extent{t.offset, t.size, t.events, t.hash,
                                 layout.blockFault[i]};
      salvageV2Block(image, size, extent, static_cast<ProcessId>(i),
                     trace.functions.size(), trace.metrics.size(), nProcs,
                     st, trace.processes[i].events);
    }
  });
  return trace;
}

AppendStats appendBinaryV2(Trace& trace, const unsigned char* image,
                           std::size_t size,
                           const BinaryReadOptions& options) {
  // Chunks always decode strictly: a half-salvaged chunk appended to a
  // live trace would silently poison every later analysis.
  BinaryReadOptions strict = options;
  strict.recovery = RecoveryMode::Strict;
  strict.report = nullptr;
  Trace chunk = readBinaryV2(image, size, strict, nullptr);

  AppendStats stats;
  const bool empty = trace.processes.empty() && trace.functions.size() == 0 &&
                     trace.metrics.size() == 0;
  if (empty) {
    // Adopt-on-first-append: the first chunk defines the stream.
    for (const ProcessTrace& p : chunk.processes) {
      if (!p.events.empty()) {
        ++stats.processesTouched;
        stats.eventsAppended += p.events.size();
      }
    }
    trace = std::move(chunk);
    return stats;
  }

  PERFVAR_REQUIRE_E(chunk.resolution == trace.resolution,
                    "binary trace append: chunk resolution differs from the "
                    "live trace",
                    ErrorContext::at(ErrorCode::MalformedEvent));
  PERFVAR_REQUIRE_E(chunk.processes.size() == trace.processes.size(),
                    "binary trace append: chunk process count differs from "
                    "the live trace",
                    ErrorContext::at(ErrorCode::MalformedEvent));
  PERFVAR_REQUIRE_E(encodeDefs(chunk) == encodeDefs(trace),
                    "binary trace append: chunk definitions differ from the "
                    "live trace",
                    ErrorContext::at(ErrorCode::MalformedEvent));

  // Validate every stream boundary before mutating anything, so a bad
  // chunk leaves the live trace untouched.
  for (std::size_t i = 0; i < chunk.processes.size(); ++i) {
    const auto& add = chunk.processes[i].events;
    const auto& have = trace.processes[i].events;
    PERFVAR_REQUIRE_E(
        add.empty() || have.empty() || add.front().time >= have.back().time,
        "binary trace append: chunk events precede the live stream",
        ErrorContext::at(ErrorCode::MalformedEvent, 0,
                         static_cast<std::int64_t>(i)));
  }
  for (std::size_t i = 0; i < chunk.processes.size(); ++i) {
    auto& add = chunk.processes[i].events;
    if (add.empty()) {
      continue;
    }
    auto& have = trace.processes[i].events;
    have.insert(have.end(), add.begin(), add.end());
    ++stats.processesTouched;
    stats.eventsAppended += add.size();
  }
  trace.invalidateTimeBounds();
  return stats;
}

BinaryFileInfo inspectBinaryV2(const unsigned char* image, std::size_t size) {
  const V2Layout layout = parseHeader(image, size);
  Trace defsOnly;
  defsOnly.resolution = layout.resolution;
  const std::vector<std::string> names = decodeDefs(image, layout, defsOnly);

  BinaryFileInfo info;
  info.version = kBinaryFormatV2;
  info.resolution = layout.resolution;
  for (std::size_t i = 0; i < layout.table.size(); ++i) {
    info.blocks.push_back(BinaryBlockInfo{
        names[i], layout.table[i].events, layout.table[i].size,
        layout.table[i].offset});
    info.eventCount += layout.table[i].events;
  }
  return info;
}

}  // namespace perfvar::trace::detail
