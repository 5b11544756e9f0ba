#ifndef PERFVAR_BENCH_SUITE_PROBES_HPP
#define PERFVAR_BENCH_SUITE_PROBES_HPP

/// \file probes.hpp
/// The per-layer probes of a traced run. Each probe times one public
/// entry point of one layer on the workload's own input, under its own
/// span, so every workload reports the same per-layer metrics: the
/// BENCHMARK.json `per_layer` list is the set added here plus
/// trace_overhead and span_coverage.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "chunks.hpp"
#include "server/service.hpp"
#include "trace/view.hpp"

namespace perfvar::bench {

/// What the probes run on.
struct ProbeInput {
  std::string tracePath;             ///< PVTF v2 file of the input trace
  trace::TraceView view;             ///< the view the workload analyzes
  std::size_t threads = 1;           ///< the workload's analysis threads
  std::size_t shardBudgetBytes = 0;  ///< shard budget of lazy views
  std::function<void()> open;        ///< the workload's own open call
  ChunkStream stream;                ///< the input as a producer sends it
  std::string segmentFunction;       ///< live-stream segment function
};

/// Run every probe; adds one metric per probe to `out`.
void runLayerProbes(const RunContext& ctx, const ProbeInput& input,
                    Measurements& out);

/// Chunk file the probes stream for inputs that are not a stream already:
/// the parent writes it for traced runs, the child reads it back.
inline constexpr std::string_view kProbeChunks = "probe-chunks.bin";
void writeProbeChunks(const RunContext& ctx, const trace::Trace& input);

/// Half the decoded size of a trace file (read from its block table, no
/// decode): the shard budget that keeps an out-of-core view under memory
/// pressure.
std::size_t halfDecodedBytes(const std::string& tracePath);

/// A producer's Append frames handled by a TraceService directly, in
/// process and with no socket.
struct ServiceReplay {
  std::vector<double> handleSeconds;  ///< one per Append, in send order
  std::uint64_t flushedChunks = 0;    ///< window commits the Ok texts report
  std::string journalPath;            ///< the trace's journal, if journaling
};
ServiceReplay replayIntoService(const server::ServerOptions& options,
                                const ChunkStream& stream,
                                const std::string& segmentFunction);

}  // namespace perfvar::bench

#endif  // PERFVAR_BENCH_SUITE_PROBES_HPP
