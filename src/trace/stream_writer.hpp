#ifndef PERFVAR_TRACE_STREAM_WRITER_HPP
#define PERFVAR_TRACE_STREAM_WRITER_HPP

/// \file stream_writer.hpp
/// Rank-by-rank streaming writer of PVTF v2 trace files.
///
/// V2StreamWriter produces byte-identical output to writeBinary() (v2)
/// without ever holding more than one rank's events in memory: the header
/// and block table are written as placeholders up front, each rank's block
/// is encoded and appended as it arrives, and finish() seeks back to patch
/// the table and re-seal the header hash. This is how six-figure-rank
/// traces are generated to disk (see apps::writeScaleTrace) — peak memory
/// is one rank's event vector, not the whole run.

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "trace/definitions.hpp"
#include "trace/event.hpp"

namespace perfvar::trace {

/// Streaming v2 writer. Usage: construct with the definitions and the
/// full process-name list, call writeRank() once per rank in process
/// order, then finish(). Abandoning the writer without finish() leaves an
/// unreadable file (the header hash is still the placeholder).
class V2StreamWriter {
public:
  /// Open `path` and write the prologue, placeholder header/table and the
  /// definitions block. Throws perfvar::Error on I/O failure or an empty
  /// process list.
  V2StreamWriter(const std::string& path, std::uint64_t resolution,
                 const FunctionRegistry& functions,
                 const MetricRegistry& metrics,
                 const std::vector<std::string>& processNames);

  V2StreamWriter(const V2StreamWriter&) = delete;
  V2StreamWriter& operator=(const V2StreamWriter&) = delete;

  /// Encode and append the event block of the next rank. Ranks must be
  /// written in process order (0, 1, ..., P-1); `rank` re-states the
  /// expected index as a guard. Events must be time-sorted.
  void writeRank(ProcessId rank, const Event* events, std::size_t count);
  void writeRank(ProcessId rank, const std::vector<Event>& events) {
    writeRank(rank, events.data(), events.size());
  }

  /// Patch the block table, re-seal the header hash and close the file.
  /// Every rank must have been written. Throws on I/O failure.
  void finish();

private:
  std::ofstream out_;
  std::string path_;
  std::string fixedHeader_;  ///< bytes [16, 48): resolution, P, defs size/hash
  std::string table_;        ///< table bytes, patched as ranks arrive
  std::size_t processCount_ = 0;
  std::size_t nextRank_ = 0;
  std::uint64_t offset_ = 0;  ///< absolute offset of the next event block
  bool finished_ = false;
};

}  // namespace perfvar::trace

#endif  // PERFVAR_TRACE_STREAM_WRITER_HPP
