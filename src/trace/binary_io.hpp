#ifndef PERFVAR_TRACE_BINARY_IO_HPP
#define PERFVAR_TRACE_BINARY_IO_HPP

/// \file binary_io.hpp
/// Binary serialization of traces ("PVTF" format, the OTF2 stand-in).
///
/// Two on-disk layouts share the magic/version prologue (see
/// docs/FORMAT.md for the byte-level reference):
///
/// v1 (legacy, streaming):
///   magic "PVTF" | version u32 LE | payload | fnv1a-64 checksum (8 B LE)
/// The payload holds resolution, definitions, and per-process event
/// streams with delta-encoded timestamps, checksummed as one unit.
///
/// v2 (current, block-based):
///   magic "PVTF" | version u32 LE | header hash | fixed header |
///   block table | definitions block | one event block per process
/// Every process stream is an independently decodable block with
/// delta-encoded timestamps and varint fields; each block carries its own
/// FNV-1a checksum computed block-wise over the encoded buffer (no
/// per-byte stream virtual calls), so blocks can be decoded in parallel
/// straight out of a memory-mapped file.
///
/// writeBinary() writes v2 only; v1 files written by older versions keep
/// loading through the legacy path. In the default Strict recovery mode
/// readers validate magic, version and all checksums and throw
/// perfvar::Error on any corruption; a Trace round-trips bit-exactly
/// through either version. RecoveryMode::Salvage instead quarantines the
/// rank blocks that fail verification and returns every healthy rank (see
/// docs/FORMAT.md, "Recovery semantics").

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace perfvar::trace {

inline constexpr std::uint32_t kBinaryFormatV1 = 1;
inline constexpr std::uint32_t kBinaryFormatV2 = 2;

/// Options of the binary writers.
struct BinaryWriteOptions {
  /// Worker threads for the per-rank v2 block encode: 1 (default) encodes
  /// inline, 0 = hardware concurrency; other values run the encode on a
  /// pool the call owns for its duration. The bytes produced are
  /// identical for every thread count (blocks are encoded independently
  /// and assembled in process order).
  std::size_t threads = 1;
};

/// Recovery policy of the binary readers.
enum class RecoveryMode : std::uint8_t {
  /// Throw perfvar::Error on any fault (the historical contract).
  Strict,
  /// Quarantine rank blocks that fail checksum or decode, keep every
  /// healthy rank. Header-level corruption (prologue, v2 fixed header /
  /// block table / definitions) is unsalvageable and still throws.
  Salvage,
};

/// Load status of one rank (process stream) of a binary trace file, as
/// reported by a Salvage-mode load or by verifyBinaryFile().
struct RankLoadStatus {
  std::string process;               ///< process name (may be empty if lost)
  bool ok = true;                    ///< stream verified and fully decoded
  ErrorCode error = ErrorCode::None; ///< fault class when !ok
  std::uint64_t bytesTotal = 0;      ///< encoded stream bytes per the file
  std::uint64_t bytesSalvaged = 0;   ///< encoded bytes decoded successfully
  std::uint64_t eventsDeclared = 0;  ///< event count per the file
  std::uint64_t eventsSalvaged = 0;  ///< decoded events kept
  std::uint64_t eventsDropped = 0;   ///< declared events lost to the fault
};

/// Per-rank outcome of a binary load (BinaryReadOptions::report) or of
/// verifyBinaryFile().
struct LoadReport {
  std::uint32_t version = 0;  ///< on-disk format of the file
  RecoveryMode mode = RecoveryMode::Strict;
  std::vector<RankLoadStatus> ranks;  ///< one entry per process, in order

  std::size_t quarantinedCount() const;
  bool clean() const { return quarantinedCount() == 0; }
};

/// Human-readable per-rank status table (the `trace_tool info --verify`
/// and `trace_tool salvage` view).
std::string formatLoadReport(const LoadReport& report);

/// Options of the binary readers.
struct BinaryReadOptions {
  /// Worker threads for the per-rank v2 block decode: 1 (default) decodes
  /// inline, 0 = hardware concurrency; other values run the decode on a
  /// pool the call owns for its duration. The resulting Trace is
  /// identical for every thread count (each rank fills only its own
  /// process slot). Ignored for v1 files.
  std::size_t threads = 1;
  /// Strict (default) throws on any fault; Salvage quarantines faulty
  /// rank blocks (Trace::quarantined) and keeps the healthy ranks.
  RecoveryMode recovery = RecoveryMode::Strict;
  /// When set, receives the per-rank load outcome (all-ok for a
  /// successful Strict load).
  LoadReport* report = nullptr;
};

/// Serialize a trace to a stream as PVTF v2 (v1 files are read, never
/// written).
void writeBinary(const Trace& trace, std::ostream& out,
                 const BinaryWriteOptions& options = {});

/// Deserialize a trace from a stream (either version; sniffs the header);
/// throws perfvar::Error on malformed input (bad magic, unsupported
/// version, truncation, checksum mismatch).
Trace readBinary(std::istream& in, const BinaryReadOptions& options = {});

/// Deserialize a trace from an in-memory image (either version). This is
/// the zero-copy v2 path: event blocks are decoded directly from `data`.
Trace readBinaryBuffer(const void* data, std::size_t size,
                       const BinaryReadOptions& options = {});

/// Outcome of one appendBinaryBuffer() call.
struct AppendStats {
  std::size_t eventsAppended = 0;    ///< events added across all processes
  std::size_t processesTouched = 0;  ///< processes that received >= 1 event
};

/// Streaming ingestion: decode a self-contained v2 chunk image and append
/// its events to `trace`. This is the `append` path of the analysis
/// server — a producer keeps emitting whole v2 images (each covering the
/// next time window) and the accumulated trace stays analyzable after
/// every chunk.
///
/// The first append into a default-constructed (empty) trace adopts the
/// chunk wholesale. Every later chunk must be compatible: same
/// resolution, identical definitions (functions, metrics, process names,
/// byte-compared in encoded form), and per process its first event must
/// not precede the last event already accumulated, so each stream stays
/// time-sorted. Chunks always decode strictly (BinaryReadOptions::recovery
/// is ignored; a corrupt chunk throws and leaves `trace` untouched).
/// Throws Error(UnsupportedVersion) for v1 images — v1 has no
/// independently decodable blocks — and Error(MalformedEvent) for an
/// incompatible or out-of-order chunk.
AppendStats appendBinaryBuffer(Trace& trace, const void* data,
                               std::size_t size,
                               const BinaryReadOptions& options = {});

/// Convenience file wrappers. loadBinaryFile() memory-maps the file when
/// the platform supports it, decoding zero-copy out of the mapping, and
/// falls back to one buffered read.
void saveBinaryFile(const Trace& trace, const std::string& path,
                    const BinaryWriteOptions& options = {});
Trace loadBinaryFile(const std::string& path,
                     const BinaryReadOptions& options = {});

/// Per-process stream extent of a binary trace file (the `trace_tool
/// info` view). For v2 this comes straight from the block table; for v1
/// the extents are measured while parsing the single payload.
struct BinaryBlockInfo {
  std::string process;        ///< process name
  std::uint64_t events = 0;   ///< events in this process stream
  std::uint64_t bytes = 0;    ///< encoded size of the stream in the file
  std::uint64_t offset = 0;   ///< absolute file offset of the stream
};

/// Summary of a binary trace file without materializing its events
/// (cheap for v2: only the header, table and definitions are read; v1
/// requires a full parse of the payload).
struct BinaryFileInfo {
  std::uint32_t version = 0;
  std::uint64_t fileSize = 0;
  std::uint64_t resolution = 0;
  std::uint64_t eventCount = 0;
  std::vector<BinaryBlockInfo> blocks;  ///< one entry per process
};

/// Inspect a binary trace file; throws perfvar::Error on corruption.
BinaryFileInfo inspectBinaryFile(const std::string& path);

/// Inspect an in-memory binary trace image (either version).
BinaryFileInfo inspectBinaryBuffer(const void* data, std::size_t size);

/// Verify a binary trace file rank by rank: runs a Salvage-mode load and
/// returns the per-rank status table without keeping the trace. Throws
/// only on unsalvageable (header-level) corruption or I/O failure.
LoadReport verifyBinaryFile(const std::string& path,
                            const BinaryReadOptions& options = {});

}  // namespace perfvar::trace

#endif  // PERFVAR_TRACE_BINARY_IO_HPP
