#include "trace/binary_io.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <streambuf>

#include "trace/binary_format.hpp"
#include "util/error.hpp"
#include "util/mmap_file.hpp"

namespace perfvar::trace {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Cap for size hints taken from (not yet checksum-verified) counts: a
/// corrupted count must fail on decode, never on a pathological reserve.
constexpr std::uint64_t kReserveCap = 1ULL << 20;

/// Buffered v1 payload reader that maintains an FNV-1a checksum.
class PayloadReader {
public:
  explicit PayloadReader(std::istream& in) : in_(in) {}

  void bytes(void* data, std::size_t n) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    PERFVAR_REQUIRE_E(static_cast<std::size_t>(in_.gcount()) == n,
                      "binary trace truncated",
                      ErrorContext::at(ErrorCode::TruncatedInput));
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * kFnvPrime;
    }
  }

  std::uint8_t u8() {
    std::uint8_t v = 0;
    bytes(&v, 1);
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      PERFVAR_REQUIRE_E(shift < 64, "binary trace: varint too long",
                        ErrorContext::at(ErrorCode::MalformedEvent));
      const std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        break;
      }
      shift += 7;
    }
    return v;
  }

  double f64() {
    unsigned char buf[8];
    bytes(buf, 8);
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
    }
    return std::bit_cast<double>(bits);
  }

  std::string string() {
    const std::uint64_t n = varint();
    PERFVAR_REQUIRE_E(n < (1ULL << 24), "binary trace: oversized string",
                      ErrorContext::at(ErrorCode::MalformedEvent));
    std::string s(static_cast<std::size_t>(n), '\0');
    if (n > 0) {
      bytes(s.data(), static_cast<std::size_t>(n));
    }
    return s;
  }

  std::uint64_t hash() const { return hash_; }

  /// Current position of the underlying stream (v1 block extents).
  std::uint64_t tell() const {
    const auto pos = in_.tellg();
    return pos < 0 ? 0 : static_cast<std::uint64_t>(pos);
  }

private:
  std::istream& in_;
  std::uint64_t hash_ = kFnvOffset;
};

std::uint32_t readU32LE(std::istream& in) {
  unsigned char buf[4];
  in.read(reinterpret_cast<char*>(buf), 4);
  PERFVAR_REQUIRE_E(in.gcount() == 4, "binary trace truncated",
                    ErrorContext::at(ErrorCode::TruncatedInput));
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(buf[i]) << (8 * i);
  }
  return v;
}

/// Zero-copy std::istream over an in-memory byte range (the v1-from-
/// mapped-file path).
class MemoryStreamBuf : public std::streambuf {
public:
  MemoryStreamBuf(const unsigned char* data, std::size_t size) {
    auto* p = const_cast<char*>(reinterpret_cast<const char*>(data));
    setg(p, p, p + size);
  }

protected:
  // tellg() support for the v1 block-extent tracking.
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override {
    if (!(which & std::ios_base::in)) {
      return pos_type(off_type(-1));
    }
    char* target = nullptr;
    switch (dir) {
      case std::ios_base::beg:
        target = eback() + off;
        break;
      case std::ios_base::cur:
        target = gptr() + off;
        break;
      case std::ios_base::end:
        target = egptr() + off;
        break;
      default:
        return pos_type(off_type(-1));
    }
    if (target < eback() || target > egptr()) {
      return pos_type(off_type(-1));
    }
    setg(eback(), target, egptr());
    return pos_type(target - eback());
  }

  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
    return seekoff(off_type(pos), std::ios_base::beg, which);
  }
};

/// Read a whole stream (from the current position) into a byte vector.
std::vector<unsigned char> slurp(std::istream& in) {
  std::vector<unsigned char> bytes;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    bytes.insert(bytes.end(), buf, buf + in.gcount());
  }
  return bytes;
}

std::uint32_t readPrologue(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  PERFVAR_REQUIRE_E(
      in.gcount() == 4 &&
          std::memcmp(magic, detail::kBinaryMagic, 4) == 0,
      "binary trace: bad magic", ErrorContext::at(ErrorCode::BadMagic, 0));
  return readU32LE(in);
}

/// Validate the prologue of an in-memory image and return the version.
/// A prefix of a valid prologue classifies as truncation, not bad magic.
std::uint32_t sniffPrologue(const unsigned char* bytes, std::size_t size) {
  PERFVAR_REQUIRE_E(
      size > 0 && std::memcmp(bytes, detail::kBinaryMagic,
                              std::min<std::size_t>(size, 4)) == 0,
      "binary trace: bad magic", ErrorContext::at(ErrorCode::BadMagic, 0));
  PERFVAR_REQUIRE_E(size >= detail::kBinaryPrologueSize,
                    "binary trace: truncated prologue",
                    ErrorContext::at(ErrorCode::TruncatedInput, size));
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<std::uint32_t>(bytes[4 + i]) << (8 * i);
  }
  PERFVAR_REQUIRE_E(version == kBinaryFormatV1 || version == kBinaryFormatV2,
                    "binary trace: unsupported version " +
                        std::to_string(version),
                    ErrorContext::at(ErrorCode::UnsupportedVersion, 4));
  return version;
}

ErrorContext ioError(const std::string& path) {
  ErrorContext c;
  c.code = ErrorCode::IoFailure;
  c.path = path;
  return c;
}

/// Decode the v1 payload prefix shared by the strict and salvage readers:
/// resolution plus function/metric definitions. Returns the declared
/// process count.
std::uint64_t readV1Defs(PayloadReader& r, Trace& trace) {
  trace.resolution = r.varint();
  PERFVAR_REQUIRE_E(trace.resolution > 0, "binary trace: zero resolution",
                    ErrorContext::at(ErrorCode::MalformedEvent));

  const std::uint64_t nFuncs = r.varint();
  PERFVAR_REQUIRE_E(nFuncs < (1ULL << 24), "binary trace: too many functions",
                    ErrorContext::at(ErrorCode::MalformedEvent));
  for (std::uint64_t i = 0; i < nFuncs; ++i) {
    const std::string name = r.string();
    const std::string group = r.string();
    const auto paradigm = static_cast<Paradigm>(r.u8());
    PERFVAR_REQUIRE_E(paradigm <= Paradigm::Other,
                      "binary trace: invalid paradigm",
                      ErrorContext::at(ErrorCode::MalformedEvent));
    trace.functions.intern(name, group, paradigm);
  }

  const std::uint64_t nMetrics = r.varint();
  PERFVAR_REQUIRE_E(nMetrics < (1ULL << 24), "binary trace: too many metrics",
                    ErrorContext::at(ErrorCode::MalformedEvent));
  for (std::uint64_t i = 0; i < nMetrics; ++i) {
    const std::string name = r.string();
    const std::string unit = r.string();
    const auto mode = static_cast<MetricMode>(r.u8());
    PERFVAR_REQUIRE_E(mode <= MetricMode::Absolute,
                      "binary trace: invalid metric mode",
                      ErrorContext::at(ErrorCode::MalformedEvent));
    trace.metrics.intern(name, unit, mode);
  }

  const std::uint64_t nProcs = r.varint();
  PERFVAR_REQUIRE_E(nProcs >= 1 && nProcs < (1ULL << 24),
                    "binary trace: invalid process count",
                    ErrorContext::at(ErrorCode::MalformedEvent));
  return nProcs;
}

/// Decode one v1 event, accumulating the delta-encoded timestamp into
/// `last`. Throws on malformed or truncated content.
void readV1Event(PayloadReader& r, Timestamp& last, Event& e) {
  const auto kind = static_cast<EventKind>(r.u8());
  PERFVAR_REQUIRE_E(kind <= EventKind::Metric,
                    "binary trace: invalid event kind",
                    ErrorContext::at(ErrorCode::MalformedEvent));
  e.kind = kind;
  last += r.varint();
  e.time = last;
  switch (kind) {
    case EventKind::Enter:
    case EventKind::Leave:
      e.ref = static_cast<std::uint32_t>(r.varint());
      break;
    case EventKind::MpiSend:
    case EventKind::MpiRecv:
      e.ref = static_cast<std::uint32_t>(r.varint());
      e.aux = static_cast<std::uint32_t>(r.varint());
      e.size = r.varint();
      break;
    case EventKind::Metric:
      e.ref = static_cast<std::uint32_t>(r.varint());
      e.value = r.f64();
      break;
  }
}

/// All-ok per-rank status table of a successful Strict decode.
void fillStrictReport(LoadReport& report,
                      const std::vector<BinaryBlockInfo>& blocks) {
  for (const BinaryBlockInfo& b : blocks) {
    RankLoadStatus st;
    st.process = b.process;
    st.bytesTotal = b.bytes;
    st.bytesSalvaged = b.bytes;
    st.eventsDeclared = b.events;
    st.eventsSalvaged = b.events;
    report.ranks.push_back(std::move(st));
  }
}

}  // namespace

namespace detail {

Trace readBinaryV1(std::istream& in, std::vector<BinaryBlockInfo>* blocks) {
  PayloadReader r(in);
  Trace trace;
  const std::uint64_t nProcs = readV1Defs(r, trace);
  trace.processes.resize(static_cast<std::size_t>(nProcs));
  for (auto& p : trace.processes) {
    const std::uint64_t blockStart = r.tell();
    p.name = r.string();
    const std::uint64_t nEvents = r.varint();
    // Reserve from the declared count, clamped: the count is only
    // trustworthy after the checksum check at the end of the payload.
    p.events.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(nEvents, kReserveCap)));
    Timestamp last = 0;
    for (std::uint64_t i = 0; i < nEvents; ++i) {
      Event e;
      readV1Event(r, last, e);
      p.events.push_back(e);
    }
    if (blocks != nullptr) {
      // `offset` is relative to the stream start (callers seeing the whole
      // file add the prologue size).
      blocks->push_back(BinaryBlockInfo{p.name, nEvents,
                                        r.tell() - blockStart, blockStart});
    }
  }

  const std::uint64_t expected = r.hash();
  unsigned char buf[8];
  in.read(reinterpret_cast<char*>(buf), 8);
  PERFVAR_REQUIRE_E(in.gcount() == 8, "binary trace: missing checksum",
                    ErrorContext::at(ErrorCode::TruncatedInput));
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
  }
  PERFVAR_REQUIRE_E(stored == expected, "binary trace: checksum mismatch",
                    ErrorContext::at(ErrorCode::ChecksumMismatch));
  return trace;
}

}  // namespace detail

namespace {

/// Salvage-mode v1 reader over the payload (`body` excludes the
/// prologue). v1 has a single checksum domain covering the definitions
/// and every stream, so fault localization is limited: a clean strict
/// pass keeps everything; a payload that simply ends early keeps the
/// fully decoded prefix ranks; any in-range corruption (including a
/// trailer checksum mismatch) quarantines every rank, since the fault
/// cannot be pinned to one stream. Definitions that fail to parse leave
/// nothing to salvage and rethrow.
Trace readBinaryV1Salvage(const unsigned char* body, std::size_t bodySize,
                          LoadReport& report) {
  report.version = kBinaryFormatV1;
  report.mode = RecoveryMode::Salvage;
  report.ranks.clear();

  // Strict-first: an intact payload must load byte-for-byte like Strict.
  try {
    MemoryStreamBuf buf(body, bodySize);
    std::istream in(&buf);
    std::vector<BinaryBlockInfo> blocks;
    Trace trace = detail::readBinaryV1(in, &blocks);
    fillStrictReport(report, blocks);
    return trace;
  } catch (const Error&) {
    report.ranks.clear();
  }

  MemoryStreamBuf buf(body, bodySize);
  std::istream in(&buf);
  PayloadReader r(in);
  Trace trace;
  const std::uint64_t nProcs64 = readV1Defs(r, trace);
  const auto nProcs = static_cast<std::size_t>(nProcs64);
  trace.processes.resize(nProcs);
  report.ranks.assign(nProcs, RankLoadStatus{});

  ErrorCode failCode = ErrorCode::None;
  std::size_t failedRank = nProcs;
  bool eofTruncation = false;
  for (std::size_t p = 0; p < nProcs; ++p) {
    RankLoadStatus& st = report.ranks[p];
    ProcessTrace& proc = trace.processes[p];
    const std::uint64_t blockStart = r.tell();
    // tell() is unusable once the stream has failed; track the position
    // after the last fully decoded event instead.
    std::uint64_t lastGood = blockStart;
    try {
      proc.name = r.string();
      st.process = proc.name;
      const std::uint64_t nEvents = r.varint();
      st.eventsDeclared = nEvents;
      proc.events.reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(nEvents, kReserveCap)));
      Timestamp last = 0;
      for (std::uint64_t i = 0; i < nEvents; ++i) {
        Event e;
        readV1Event(r, last, e);
        proc.events.push_back(e);
        lastGood = r.tell();
      }
      const std::uint64_t extent = r.tell() - blockStart;
      st.bytesTotal = extent;
      st.bytesSalvaged = extent;
      st.eventsSalvaged = nEvents;
    } catch (const Error& e) {
      failCode = e.code() == ErrorCode::Generic ? ErrorCode::MalformedEvent
                                                : e.code();
      // PayloadReader only reports TruncatedInput when the stream itself
      // ran out of bytes, so that code identifies a pure EOF cut.
      eofTruncation = failCode == ErrorCode::TruncatedInput;
      failedRank = p;
      st.bytesSalvaged = lastGood - blockStart;
      st.bytesTotal = st.bytesSalvaged;
      break;
    }
  }

  if (failedRank == nProcs) {
    // Every stream decoded, so the strict failure must be in the trailer.
    // A missing trailer after a full decode is truncation at the trailer
    // itself: the streams decoded completely and stay trusted.
    unsigned char buf8[8];
    in.read(reinterpret_cast<char*>(buf8), 8);
    if (in.gcount() == 8) {
      std::uint64_t stored = 0;
      for (int i = 0; i < 8; ++i) {
        stored |= static_cast<std::uint64_t>(buf8[i]) << (8 * i);
      }
      if (stored != r.hash()) {
        failCode = ErrorCode::ChecksumMismatch;
      }
    }
  }

  if (failedRank < nProcs && eofTruncation) {
    // The payload simply ends early: everything before the cut decoded
    // in full and stays trusted; the cut rank and the ranks after it are
    // quarantined.
    for (std::size_t p = failedRank; p < nProcs; ++p) {
      report.ranks[p].ok = false;
      report.ranks[p].error = ErrorCode::TruncatedInput;
    }
  } else if (failedRank < nProcs || failCode != ErrorCode::None) {
    // In-range corruption (or a trailer mismatch): v1's single checksum
    // domain cannot localize the fault, so no stream can be trusted.
    for (std::size_t p = 0; p < nProcs; ++p) {
      report.ranks[p].ok = false;
      report.ranks[p].error = failCode;
    }
  }

  for (std::size_t p = 0; p < nProcs; ++p) {
    RankLoadStatus& st = report.ranks[p];
    if (st.ok) {
      continue;
    }
    st.eventsSalvaged = detail::balanceSalvagedEvents(
        trace.processes[p].events, trace.functions.size(),
        trace.metrics.size(), nProcs, static_cast<ProcessId>(p));
    st.eventsDropped = st.eventsDeclared > st.eventsSalvaged
                           ? st.eventsDeclared - st.eventsSalvaged
                           : 0;
  }
  return trace;
}

}  // namespace

std::size_t LoadReport::quarantinedCount() const {
  return static_cast<std::size_t>(
      std::count_if(ranks.begin(), ranks.end(),
                    [](const RankLoadStatus& st) { return !st.ok; }));
}

std::string formatLoadReport(const LoadReport& report) {
  std::ostringstream out;
  const std::size_t total = report.ranks.size();
  const std::size_t ok = total - report.quarantinedCount();
  out << "load report: v" << report.version << ", "
      << (report.mode == RecoveryMode::Salvage ? "salvage" : "strict")
      << " mode, " << ok << "/" << total << " ranks ok\n";
  for (std::size_t i = 0; i < total; ++i) {
    const RankLoadStatus& st = report.ranks[i];
    out << "  rank " << i << " \"" << st.process << "\": ";
    if (st.ok) {
      out << "ok (" << st.eventsSalvaged << " events, " << st.bytesSalvaged
          << " bytes)\n";
    } else {
      out << "quarantined: " << errorCodeName(st.error) << " (salvaged "
          << st.eventsSalvaged << "/" << st.eventsDeclared << " events, "
          << st.bytesSalvaged;
      if (st.bytesTotal > 0) {
        out << "/" << st.bytesTotal;
      }
      out << " bytes)\n";
    }
  }
  return out.str();
}

void writeBinary(const Trace& trace, std::ostream& out,
                 const BinaryWriteOptions& options) {
  detail::writeBinaryV2(trace, out, options);
}

Trace readBinary(std::istream& in, const BinaryReadOptions& options) {
  const std::uint32_t version = readPrologue(in);
  if (version == kBinaryFormatV1 &&
      options.recovery == RecoveryMode::Strict && options.report == nullptr) {
    // Streaming fast path: v1 decodes straight off the stream.
    return detail::readBinaryV1(in, nullptr);
  }
  PERFVAR_REQUIRE_E(version == kBinaryFormatV1 || version == kBinaryFormatV2,
                    "binary trace: unsupported version " +
                        std::to_string(version),
                    ErrorContext::at(ErrorCode::UnsupportedVersion, 4));
  // Everything else works on a contiguous image; reassemble prologue +
  // body (v2 block-table offsets are absolute).
  std::vector<unsigned char> image;
  image.reserve(detail::kBinaryPrologueSize + (1 << 16));
  const unsigned char prologue[detail::kBinaryPrologueSize] = {
      'P', 'V', 'T', 'F',
      static_cast<unsigned char>(version & 0xFF),
      static_cast<unsigned char>((version >> 8) & 0xFF),
      static_cast<unsigned char>((version >> 16) & 0xFF),
      static_cast<unsigned char>((version >> 24) & 0xFF)};
  image.insert(image.end(), prologue, prologue + sizeof prologue);
  const std::vector<unsigned char> body = slurp(in);
  image.insert(image.end(), body.begin(), body.end());
  return readBinaryBuffer(image.data(), image.size(), options);
}

Trace readBinaryBuffer(const void* data, std::size_t size,
                       const BinaryReadOptions& options) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const std::uint32_t version = sniffPrologue(bytes, size);

  LoadReport local;
  LoadReport& report = options.report != nullptr ? *options.report : local;
  report = LoadReport{};
  report.version = version;
  report.mode = options.recovery;

  if (options.recovery == RecoveryMode::Salvage) {
    Trace trace;
    if (version == kBinaryFormatV1) {
      trace = readBinaryV1Salvage(bytes + detail::kBinaryPrologueSize,
                                  size - detail::kBinaryPrologueSize, report);
    } else {
      trace = detail::readBinaryV2Salvage(bytes, size, options, report);
    }
    for (std::size_t i = 0; i < report.ranks.size(); ++i) {
      const RankLoadStatus& st = report.ranks[i];
      if (!st.ok) {
        trace.quarantined.push_back(QuarantinedRank{
            static_cast<ProcessId>(i), st.process, st.error, st.bytesSalvaged,
            st.eventsSalvaged, st.eventsDropped});
      }
    }
    return trace;
  }

  if (version == kBinaryFormatV1) {
    MemoryStreamBuf buf(bytes + detail::kBinaryPrologueSize,
                        size - detail::kBinaryPrologueSize);
    std::istream in(&buf);
    if (options.report == nullptr) {
      return detail::readBinaryV1(in, nullptr);
    }
    std::vector<BinaryBlockInfo> blocks;
    Trace trace = detail::readBinaryV1(in, &blocks);
    fillStrictReport(report, blocks);
    return trace;
  }
  if (options.report == nullptr) {
    return detail::readBinaryV2(bytes, size, options, nullptr);
  }
  BinaryFileInfo info;
  Trace trace = detail::readBinaryV2(bytes, size, options, &info);
  fillStrictReport(report, info.blocks);
  return trace;
}

AppendStats appendBinaryBuffer(Trace& trace, const void* data,
                               std::size_t size,
                               const BinaryReadOptions& options) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const std::uint32_t version = sniffPrologue(bytes, size);
  PERFVAR_REQUIRE_E(version == kBinaryFormatV2,
                    "binary trace append: requires a v2 chunk (v" +
                        std::to_string(version) +
                        " has no independently decodable blocks)",
                    ErrorContext::at(ErrorCode::UnsupportedVersion, 4));
  return detail::appendBinaryV2(trace, bytes, size, options);
}

void saveBinaryFile(const Trace& trace, const std::string& path,
                    const BinaryWriteOptions& options) {
  std::ofstream out(path, std::ios::binary);
  PERFVAR_REQUIRE_E(out.good(), "cannot open '" + path + "' for writing",
                    ioError(path));
  writeBinary(trace, out, options);
  out.close();
  PERFVAR_REQUIRE_E(out.good(), "write to '" + path + "' failed",
                    ioError(path));
}

namespace {

/// Attach the file path to an Error thrown by the buffer-level readers
/// (they only see bytes) and rethrow, so callers always learn which file
/// failed. Errors that already carry a path pass through untouched.
[[noreturn]] void rethrowWithPath(const Error& e, const std::string& path) {
  if (!e.path().empty()) {
    throw e;
  }
  ErrorContext context = e.context();
  context.path = path;
  throw Error(e.what(), std::move(context));
}

}  // namespace

Trace loadBinaryFile(const std::string& path,
                     const BinaryReadOptions& options) {
  const util::FileView file = util::FileView::open(path);
  try {
    return readBinaryBuffer(file.data(), file.size(), options);
  } catch (const Error& e) {
    rethrowWithPath(e, path);
  }
}

BinaryFileInfo inspectBinaryBuffer(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const std::uint32_t version = sniffPrologue(bytes, size);
  if (version == kBinaryFormatV2) {
    BinaryFileInfo info = detail::inspectBinaryV2(bytes, size);
    info.fileSize = size;
    return info;
  }
  BinaryFileInfo info;
  info.version = kBinaryFormatV1;
  info.fileSize = size;
  MemoryStreamBuf buf(bytes + detail::kBinaryPrologueSize,
                      size - detail::kBinaryPrologueSize);
  std::istream in(&buf);
  const Trace trace = detail::readBinaryV1(in, &info.blocks);
  // readBinaryV1 measures extents relative to the payload; report them as
  // absolute file offsets like the v2 block table does.
  for (BinaryBlockInfo& b : info.blocks) {
    b.offset += detail::kBinaryPrologueSize;
  }
  info.resolution = trace.resolution;
  info.eventCount = trace.eventCount();
  return info;
}

BinaryFileInfo inspectBinaryFile(const std::string& path) {
  const util::FileView file = util::FileView::open(path);
  try {
    return inspectBinaryBuffer(file.data(), file.size());
  } catch (const Error& e) {
    rethrowWithPath(e, path);
  }
}

LoadReport verifyBinaryFile(const std::string& path,
                            const BinaryReadOptions& options) {
  BinaryReadOptions o = options;
  LoadReport report;
  o.recovery = RecoveryMode::Salvage;
  o.report = &report;
  const util::FileView file = util::FileView::open(path);
  try {
    readBinaryBuffer(file.data(), file.size(), o);
  } catch (const Error& e) {
    rethrowWithPath(e, path);
  }
  return report;
}

}  // namespace perfvar::trace
