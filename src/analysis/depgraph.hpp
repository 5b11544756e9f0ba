#ifndef PERFVAR_ANALYSIS_DEPGRAPH_HPP
#define PERFVAR_ANALYSIS_DEPGRAPH_HPP

/// \file depgraph.hpp
/// Cross-rank dependency analysis: a happens-before graph over the
/// communication events of a trace, with three derived detectors.
///
/// The variation pipeline (paper Sections IV-V) finds *which ranks*
/// behave anomalously but not *why a bottleneck propagates*. This layer
/// answers the propagation question in the spirit of GAPP-style
/// critical-path profiling and idle-wave analysis:
///
///  1. buildDepGraph() turns the per-rank event streams into a
///     happens-before DAG. Nodes are the communication events (MpiSend /
///     MpiRecv) plus one start and one end sentinel per rank; edges are
///     the program order within a rank and the matched send->recv pairs
///     across ranks (FIFO per (sender, receiver, tag) channel, the MPI
///     ordering guarantee).
///  2. extractCriticalPath() walks the graph backward from the globally
///     latest rank end, always following the dependency that completed
///     last, and attributes every local step to the functions that were
///     executing (per rank and per function).
///  3. detectSerialization() flags ranks — and (rank, function) regions —
///     whose share of the critical path exceeds a threshold: the
///     signature of a serializing stage.
///  4. detectIdleWaves() recognizes wavefronts of late arrivals: chains
///     of blocked receives on distinct ranks where each late message was
///     sent by a rank that was itself delayed earlier. The head of a
///     chain names the origin rank of the wave.
///
/// Determinism discipline (same contract as analyzeTrace): node
/// extraction is sharded per contiguous range of ranks — each rank's nodes
/// are a pure function of its own event stream, so where the ranges split
/// changes nothing — and every cross-rank phase (matching, path walk,
/// detectors) is serial with total tie-break orders, so all results and
/// exports are byte-identical at every thread count.
///
/// Robustness contract (shared with lint): buildDepGraph() and the
/// detectors never throw on hostile trace content. Unmatched or invalid
/// message endpoints are counted, never fatal; non-monotone clocks clamp
/// to zero-length intervals; the backward walk carries a visited guard so
/// cyclic timestamps on garbage input terminate.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "analysis/export.hpp"
#include "analysis/sync.hpp"
#include "trace/trace.hpp"
#include "trace/view.hpp"

namespace perfvar::util {
class ThreadPool;
}

namespace perfvar::analysis {

/// Kind of one dependency-graph node.
enum class DepNodeKind : std::uint8_t {
  RankStart,  ///< sentinel before a rank's first event
  Send,       ///< an MpiSend event
  Recv,       ///< an MpiRecv event
  RankEnd,    ///< sentinel after a rank's last event
};

/// Human-readable node kind ("start", "send", "recv", "end").
const char* depNodeKindName(DepNodeKind k);

/// Exclusive time spent in one function between two consecutive nodes of
/// a rank (the unit of critical-path attribution). `function` may be
/// trace::kInvalidFunction for time outside any (known) function.
struct FunctionTicks {
  trace::FunctionId function = trace::kInvalidFunction;
  std::uint64_t ticks = 0;
};

/// One node of the happens-before graph: 64 bytes, one cache line. It
/// stores no program-order link: nodes are grouped by rank, so the
/// previous node on the same rank is the one before it in
/// DepGraph::nodes, and a RankStart has none.
struct DepNode {
  /// Event timestamp; for a sentinel, the rank's first event time
  /// (RankStart) or latest event time (RankEnd), 0 for a rank without
  /// events.
  trace::Timestamp time = 0;
  /// Recv only: when the rank began waiting — the Enter timestamp of the
  /// innermost enclosing synchronization region, or `time` when the
  /// receive sits outside any sync region. A matched send departing after
  /// `waitStart` means the receiver idled for the difference. Other kinds
  /// repeat `time`.
  trace::Timestamp waitStart = 0;
  std::int64_t match = -1;  ///< matched counterpart node index, -1 = none
  std::int64_t eventIndex = -1;  ///< index in the rank's stream, -1 = sentinel
  /// Slice [attrBegin, attrBegin+attrCount) of DepGraph::attribution:
  /// per-function exclusive time since the previous node of this rank.
  std::uint32_t attrBegin = 0;
  std::uint32_t attrCount = 0;
  trace::ProcessId process = 0;
  std::uint32_t peer = 0;  ///< send: receiver rank; recv: sender rank
  std::uint32_t tag = 0;
  DepNodeKind kind = DepNodeKind::RankStart;
  /// Innermost function open at the event (kInvalidFunction for sentinels
  /// and events outside any function).
  trace::FunctionId function = trace::kInvalidFunction;
};
static_assert(sizeof(DepNode) == 64, "DepNode is one cache line");

/// Counters of graph construction (exported for observability and pinned
/// by the robustness tests).
struct DepGraphStats {
  std::uint64_t sendEvents = 0;
  std::uint64_t recvEvents = 0;
  std::uint64_t matchedPairs = 0;
  std::uint64_t unmatchedSends = 0;
  std::uint64_t unmatchedRecvs = 0;
  /// Messages whose endpoint is the sending rank itself or out of range;
  /// they become edgeless nodes instead of matching candidates.
  std::uint64_t invalidEndpoints = 0;

  bool operator==(const DepGraphStats& other) const = default;
};

/// Options of buildDepGraph(). Execution fields (threads/pool) do not
/// change the result.
struct DepGraphOptions {
  /// Classifier deciding which regions count as synchronization (the
  /// waitStart attribution of receives).
  SyncClassifier sync{};
  /// Worker threads of the node extraction: 1 = inline, 0 = hardware.
  std::size_t threads = 1;
  /// Optional external pool; overrides `threads` when set.
  util::ThreadPool* pool = nullptr;
};

/// The happens-before graph of one trace. Nodes are grouped by rank
/// (rank 0's nodes first), stream order within a rank.
struct DepGraph {
  std::vector<DepNode> nodes;
  /// Per-rank [begin, end) node ranges into `nodes`.
  std::vector<std::pair<std::size_t, std::size_t>> rankNodes;
  /// Attribution pool referenced by DepNode::attrBegin/attrCount.
  std::vector<FunctionTicks> attribution;
  DepGraphStats stats;
  std::size_t processCount = 0;
  std::size_t functionCount = 0;
  trace::Timestamp startTime = 0;
  trace::Timestamp endTime = 0;
};

/// Build the happens-before graph. Never throws on trace content; the
/// node extraction is sharded over contiguous rank ranges (byte-identical
/// at every thread count).
DepGraph buildDepGraph(const trace::TraceView& trace,
                       const DepGraphOptions& options = {});

/// One step of the critical path, in forward time order.
struct CriticalPathStep {
  std::int64_t node = -1;  ///< destination node (index into DepGraph::nodes)
  trace::ProcessId process = 0;      ///< rank the step ends on
  trace::ProcessId fromProcess = 0;  ///< rank the step starts on
  trace::Timestamp fromTime = 0;
  trace::Timestamp toTime = 0;
  bool remote = false;  ///< message edge (transfer + receiver wait)

  std::uint64_t ticks() const {
    return toTime > fromTime ? toTime - fromTime : 0;
  }
};

/// Critical path with per-rank and per-function time attribution.
struct CriticalPathResult {
  std::vector<CriticalPathStep> steps;  ///< forward time order
  trace::Timestamp pathStart = 0;       ///< head node timestamp
  trace::Timestamp pathEnd = 0;         ///< latest rank-end timestamp
  trace::ProcessId endProcess = 0;      ///< rank the path ends on
  /// Local step time per rank (size = processCount).
  std::vector<std::uint64_t> rankTicks;
  /// Local step time per function (size = functionCount + 1; the last
  /// bucket collects time outside any known function).
  std::vector<std::uint64_t> functionTicks;
  /// Time on message edges (transfer plus receiver-side wait).
  std::uint64_t remoteTicks = 0;
  /// Sum of all step ticks — the share denominator. Equals
  /// pathEnd - pathStart on well-formed traces.
  std::uint64_t accountedTicks = 0;
  /// The backward walk hit its safety guard (cyclic timestamps on hostile
  /// input); the path is a prefix, every invariant above still holds.
  bool truncated = false;

  std::uint64_t untrackedTicks() const {
    return functionTicks.empty() ? 0 : functionTicks.back();
  }
};

/// Extract the critical path of `graph`. Deterministic (total tie-break:
/// latest dependency wins, local edge over remote on equal times, lower
/// rank on equal end times) and never throws.
CriticalPathResult extractCriticalPath(const DepGraph& graph);

/// Thresholds of detectSerialization().
struct SerializationOptions {
  /// A rank whose share of the critical path reaches this is "dominated":
  /// the path rarely leaves it (critical-path-dominated-rank).
  double rankShareThreshold = 0.5;
  /// A (rank, function) region whose share reaches this is a
  /// serialization bottleneck (serialization-bottleneck).
  double functionShareThreshold = 0.4;
  /// Detector is inert below this many processes: a near-serial trace
  /// trivially concentrates its critical path.
  std::size_t minProcesses = 2;

  bool operator==(const SerializationOptions& other) const = default;
};

/// Critical-path share of one rank.
struct RankCriticality {
  trace::ProcessId process = 0;
  std::uint64_t ticks = 0;
  double share = 0.0;  ///< ticks / accountedTicks
};

/// Critical-path share of one (rank, function) region.
struct RegionCriticality {
  trace::ProcessId process = 0;
  trace::FunctionId function = trace::kInvalidFunction;
  std::uint64_t ticks = 0;
  double share = 0.0;
};

/// Result of detectSerialization().
struct SerializationReport {
  /// Every rank with critical-path time, descending ticks (ties: rank
  /// ascending).
  std::vector<RankCriticality> ranks;
  /// Ranks at or above rankShareThreshold (subset of `ranks`, same order).
  std::vector<RankCriticality> dominatedRanks;
  /// (rank, function) regions at or above functionShareThreshold,
  /// descending ticks (ties: rank, then function ascending).
  std::vector<RegionCriticality> bottlenecks;
  std::uint64_t accountedTicks = 0;
  double remoteShare = 0.0;
};

/// GAPP-style serialization detection over an extracted critical path.
/// Inert (no dominated ranks, no bottlenecks; `ranks` still filled) when
/// the path never leaves a single rank: without a traversed cross-rank
/// dependency the share is plain longest-rank runtime, not serialization
/// evidence.
SerializationReport detectSerialization(const DepGraph& graph,
                                        const CriticalPathResult& path,
                                        const SerializationOptions& options = {});

/// Thresholds of detectIdleWaves().
struct IdleWaveOptions {
  /// Absolute wait floor (ticks) for a receive to count as a late arrival.
  std::uint64_t minWaitTicks = 0;
  /// Relative wait floor: fraction of the trace duration. The effective
  /// floor is max(minWaitTicks, minWaitShare * (endTime - startTime)), so
  /// ordinary jitter does not read as a wave.
  double minWaitShare = 0.01;
  /// A wave must touch at least this many distinct ranks to be reported.
  std::size_t minRanks = 3;

  bool operator==(const IdleWaveOptions& other) const = default;
};

/// One late arrival inside a wave: rank `process` idled `waitTicks`
/// because the message from `fromProcess` departed late.
struct IdleWaveHop {
  trace::ProcessId process = 0;
  trace::ProcessId fromProcess = 0;
  trace::Timestamp waitStart = 0;
  trace::Timestamp arriveTime = 0;  ///< receive completion
  std::uint64_t waitTicks = 0;
};

/// A propagating wavefront of late arrivals. Chains that trace back to
/// the same origin rank (e.g. the left- and right-moving fronts of a
/// stencil) are merged into one wave.
struct IdleWave {
  trace::ProcessId origin = 0;  ///< rank whose delay seeded the wave
  std::vector<IdleWaveHop> hops;  ///< arrival-time order
  std::size_t distinctRanks = 0;
  trace::Timestamp firstTime = 0;  ///< earliest hop waitStart
  trace::Timestamp lastTime = 0;   ///< latest hop arrival
  std::uint64_t maxWaitTicks = 0;
};

/// Result of detectIdleWaves().
struct IdleWaveReport {
  /// Qualified waves (>= minRanks distinct ranks), ordered by firstTime
  /// (ties: origin rank ascending).
  std::vector<IdleWave> waves;
  /// All late arrivals above the wait floor, waves or not.
  std::uint64_t lateArrivals = 0;
  /// The effective wait floor the run used (ticks).
  std::uint64_t effectiveMinWaitTicks = 0;
};

/// Wavefront detection over the matched message edges of `graph`.
IdleWaveReport detectIdleWaves(const DepGraph& graph,
                               const IdleWaveOptions& options = {});

/// Options of the combined analyzeDependencies() convenience entry.
struct DepAnalysisOptions {
  SyncClassifier sync{};
  SerializationOptions serialization{};
  IdleWaveOptions idleWave{};
  /// Execution only; results are identical for every value.
  std::size_t threads = 1;
  util::ThreadPool* pool = nullptr;
};

/// The three analyses of one trace, plus the graph counters (the graph
/// itself is dropped; it can be large).
struct DepAnalysis {
  CriticalPathResult criticalPath;
  SerializationReport serialization;
  IdleWaveReport idleWaves;
  DepGraphStats graphStats;
  std::size_t processCount = 0;
};

/// Build the graph and run all three analyses. Never throws on trace
/// content; byte-identical results at every thread count.
DepAnalysis analyzeDependencies(const trace::TraceView& trace,
                                const DepAnalysisOptions& options = {});
DepAnalysis analyzeDependencies(trace::Trace&&,
                                const DepAnalysisOptions& = {}) = delete;

/// Human-readable dependency report (the `trace_tool critpath` text
/// output). Deterministic byte-for-byte function of the analysis.
std::string formatDepAnalysis(const trace::TraceView& trace,
                              const DepAnalysis& analysis);

/// Render a dependency analysis through the unified export path.
/// Supported formats: Text (formatDepAnalysis), Json, Csv (one row per
/// critical-path step); the analysis-specific CSV variants throw.
void exportDepAnalysis(const trace::TraceView& trace,
                       const DepAnalysis& analysis, ExportFormat format,
                       std::ostream& out);

}  // namespace perfvar::analysis

#endif  // PERFVAR_ANALYSIS_DEPGRAPH_HPP
