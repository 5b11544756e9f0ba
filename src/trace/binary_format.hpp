#ifndef PERFVAR_TRACE_BINARY_FORMAT_HPP
#define PERFVAR_TRACE_BINARY_FORMAT_HPP

/// \file binary_format.hpp
/// Internal interface between the PVTF dispatchers (binary_io.cpp) and
/// the per-version codecs (the v1 reader in binary_io.cpp, v2 in
/// binary_v2.cpp).
/// Not installed, not part of the public API — include binary_io.hpp.

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "trace/binary_io.hpp"

namespace perfvar::trace::detail {

inline constexpr char kBinaryMagic[4] = {'P', 'V', 'T', 'F'};

/// Bounds-checked LEB128 decode advancing `p`. Throws perfvar::Error with
/// ErrorCode::TruncatedInput when the encoding runs past `end` and
/// ErrorCode::MalformedEvent when it would exceed 64 value bits (more
/// than 10 bytes). decodeVarint takes a fully-unrolled fast path whenever
/// 10 bytes are in bounds (one range check for the whole maximum
/// encoding); decodeVarintScalar is the byte-at-a-time loop it must match
/// byte for byte — exposed so the property tests can compare the two over
/// random and adversarial encodings.
std::uint64_t decodeVarint(const unsigned char*& p, const unsigned char* end);
std::uint64_t decodeVarintScalar(const unsigned char*& p,
                                 const unsigned char* end);

/// Size of the "magic + version" prologue both layouts share.
inline constexpr std::size_t kBinaryPrologueSize = 8;

/// Legacy v1 payload reader (v1 is read-only). Expects `in` positioned
/// after the prologue; when `blocks` is non-null it records per-process
/// stream extents (for inspectBinaryFile).
Trace readBinaryV1(std::istream& in, std::vector<BinaryBlockInfo>* blocks);

/// Block-based v2 codec over whole-file images. `image`/`size` span the
/// complete file including the prologue (block table offsets are
/// absolute). The reader decodes event blocks in parallel when the
/// options name a pool or thread count; `info` (optional) receives the
/// file summary.
void writeBinaryV2(const Trace& trace, std::ostream& out,
                   const BinaryWriteOptions& options);
Trace readBinaryV2(const unsigned char* image, std::size_t size,
                   const BinaryReadOptions& options, BinaryFileInfo* info);

/// Streaming append of one self-contained v2 chunk image (see
/// appendBinaryBuffer for the contract). Always decodes strictly.
AppendStats appendBinaryV2(Trace& trace, const unsigned char* image,
                           std::size_t size, const BinaryReadOptions& options);

/// v2 file summary from the header, table and definitions block only;
/// event blocks are bounds-checked against the file but neither decoded
/// nor checksummed (inspect stays cheap on large files).
BinaryFileInfo inspectBinaryV2(const unsigned char* image, std::size_t size);

/// Salvage-mode v2 reader: the header, block table and definitions must
/// still verify (they are the trust root), but rank blocks that fail
/// checksum, decode or extent checks are quarantined instead of throwing —
/// each keeps its balanced salvaged event prefix and gets a LoadReport
/// entry. The caller stamps Trace::quarantined from the report.
Trace readBinaryV2Salvage(const unsigned char* image, std::size_t size,
                          const BinaryReadOptions& options,
                          LoadReport& report);

/// Shared salvage post-pass: keep the longest structurally sane prefix of
/// `events` (defined refs, no self-messages, consistent Enter/Leave
/// nesting) and append synthetic Leave events at the last kept timestamp
/// for frames still open, so the stream passes the structural lint rules.
/// Returns the number of decoded events kept (the closers come after them).
std::size_t balanceSalvagedEvents(std::vector<Event>& events,
                                  std::size_t functionCount,
                                  std::size_t metricCount,
                                  std::size_t processCount, ProcessId self);

// ---- shared v2 codec building blocks ---------------------------------------
//
// The pieces below are the exact per-block primitives the eager v2 readers
// are built from, exposed so the out-of-core TraceView backend (view.cpp)
// and the rank-streaming writer (stream_writer.cpp) share them verbatim —
// byte/bit identity between the eager and lazy paths holds by construction.

/// Parsed extent of one v2 event block (one block table entry).
struct V2BlockExtent {
  std::uint64_t offset = 0;  ///< absolute file offset of the block
  std::uint64_t size = 0;    ///< encoded size in bytes
  std::uint64_t events = 0;  ///< declared event count
  std::uint64_t hash = 0;    ///< FNV-1a over the encoded block
  /// Extent fault recorded by a lenient parse (None = extent is sane and
  /// inside the file). Strict parses throw instead.
  ErrorCode fault = ErrorCode::None;
};

/// Header + block table + decoded definitions of a v2 image — everything
/// except the event blocks. This is the trust root: parseV2Summary()
/// throws on any header/table/defs fault even in lenient mode.
struct V2Summary {
  std::uint64_t resolution = 0;
  FunctionRegistry functions;
  MetricRegistry metrics;
  std::vector<std::string> processNames;  ///< one per block, table order
  std::vector<V2BlockExtent> blocks;
};

/// Validate the prologue-to-definitions region of a v2 image (bounds,
/// header hash, defs hash) and decode the definitions. `image`/`size` span
/// the whole file. With `lenientBlocks`, per-block extent faults are
/// recorded in V2BlockExtent::fault instead of throwing.
V2Summary parseV2Summary(const unsigned char* image, std::size_t size,
                         bool lenientBlocks = false);

/// Verify the checksum of one event block and decode it strictly (exact
/// declared count, no trailing bytes). Throws perfvar::Error on any fault,
/// with `rank` attached as the error context rank.
void decodeV2Block(const unsigned char* image, const V2BlockExtent& extent,
                   ProcessId rank, std::vector<Event>& out);

/// Salvage one event block: verify + strict decode when possible, lenient
/// prefix decode + balanceSalvagedEvents otherwise. Fills `status`
/// (process name left untouched) exactly as a Salvage-mode load would and
/// returns the balanced events in `out`. `fileSize` bounds tail-truncated
/// blocks.
void salvageV2Block(const unsigned char* image, std::size_t fileSize,
                    const V2BlockExtent& extent, ProcessId rank,
                    std::size_t functionCount, std::size_t metricCount,
                    std::size_t processCount, RankLoadStatus& status,
                    std::vector<Event>& out);

/// Encode the v2 definitions block (functions, metrics, process names).
std::string encodeV2Defs(const FunctionRegistry& functions,
                         const MetricRegistry& metrics,
                         const std::vector<std::string>& processNames);

/// Encode one v2 event block (delta timestamps, varints, folded refs).
std::string encodeV2Events(const Event* events, std::size_t count);

}  // namespace perfvar::trace::detail

#endif  // PERFVAR_TRACE_BINARY_FORMAT_HPP
