#ifndef PERFVAR_ANALYSIS_STREAMING_HPP
#define PERFVAR_ANALYSIS_STREAMING_HPP

/// \file streaming.hpp
/// Incremental (in-situ) SOS analysis.
///
/// The paper notes: "In-situ analysis while the target application is
/// still running is feasible as well, but the performance analysis suite
/// that we use for our prototype does not support such a workflow." This
/// module implements that extension: StreamingSos consumes events one at
/// a time (per process, in timestamp order, e.g. directly from a
/// measurement layer) and emits each segment's SegmentAnalysis the moment
/// the segment completes - no trace file needed. It also maintains a
/// running robust hotspot monitor so anomalies are flagged while the
/// application still runs.
///
/// Equivalence: StreamingSos runs each rank through the same
/// analysis::detail::SosFold as the post-mortem analyzeSos(), so feeding a
/// complete trace - whole or in time-ordered chunks - yields exactly its
/// per-segment results. StreamingSos itself only adds the per-rank call
/// stack, the (time, process) interleave, the online monitor and the
/// callbacks.

#include <functional>
#include <vector>

#include "analysis/sos.hpp"
#include "analysis/sync.hpp"
#include "trace/trace.hpp"

namespace perfvar::analysis {

/// Callback invoked on every completed segment.
using SegmentCallback = std::function<void(const SegmentAnalysis&)>;

/// Online anomaly alert: a completed segment whose SOS-time is a robust
/// outlier against everything seen so far.
struct StreamingAlert {
  SegmentAnalysis segment;
  double robustZ = 0.0;
};

/// One-line deterministic rendering of an alert, e.g.
/// "alert: process 3 \"Rank 3\" segment 17 sos 12.34 ms z 5.67".
/// `trace` supplies the process name and timestamp resolution. Used by
/// the analysis server's Alert frames and the in-situ monitor example.
std::string formatStreamingAlert(const trace::Trace& trace,
                                 const StreamingAlert& alert);

/// Options of the streaming analyzer.
struct StreamingOptions {
  SyncClassifier classifier{};
  /// Robust-z threshold of the online hotspot monitor.
  double alertThreshold = 4.0;
  /// Number of segments to observe before alerts may fire (warm-up).
  std::size_t warmupSegments = 32;
};

/// Incremental SOS analyzer over one or more process event streams.
class StreamingSos {
public:
  /// `trace` provides the definitions (functions, metrics, resolution);
  /// its event streams are NOT read - feed events via onEvent().
  StreamingSos(const trace::Trace& definitions,
               trace::FunctionId segmentFunction,
               const StreamingOptions& options = {});

  StreamingSos(const StreamingSos&) = delete;
  StreamingSos& operator=(const StreamingSos&) = delete;

  /// Feed the next event of process `p` (timestamps non-decreasing per
  /// process). Invokes `onSegment` for each completed segment and
  /// `onAlert` (optional) when the online monitor flags it. Throws
  /// Error(MalformedEvent) on an undefined ref or a leave that does not
  /// close the innermost open frame, leaving the analyzer unchanged.
  void onEvent(trace::ProcessId p, const trace::Event& event);

  /// Register sinks. Must be set before feeding events that complete
  /// segments; may be null.
  void setSegmentCallback(SegmentCallback cb) { onSegment_ = std::move(cb); }
  void setAlertCallback(std::function<void(const StreamingAlert&)> cb) {
    onAlert_ = std::move(cb);
  }

  /// Segments completed so far (across all processes).
  std::size_t segmentsCompleted() const { return completed_; }

  /// Finish the streams: verifies all stacks are empty (a live in-situ
  /// consumer would instead call this at MPI_Finalize time).
  void finish();

  /// Feed every event of `chunk` in global (time, process) order WITHOUT
  /// finishing: frames may stay open across the chunk boundary. This is
  /// the analysis server's `append` path — feeding the chunks of
  /// trace::splitByTime() in order visits events exactly like one replay()
  /// of the whole trace (minus the final finish()). `chunk` only supplies
  /// events; definitions remain the ones given at construction.
  /// All-or-nothing: a chunk with an undefined ref, or a leave that does
  /// not close its rank's innermost open frame, throws
  /// Error(MalformedEvent) before anything changes.
  void feed(const trace::Trace& chunk);

  /// feed()'s check as far as it needs no analyzer state, against the
  /// chunk's own definitions: a leave of a frame opened before the chunk
  /// passes. The server's reorder window runs it before buffering.
  static void checkChunk(const trace::Trace& chunk);

  /// Convenience: replay a complete trace through the streaming analyzer
  /// (events interleaved across processes in time order); equivalent to
  /// feed(trace) followed by finish().
  static void replay(const trace::Trace& trace, StreamingSos& analyzer);

private:
  const trace::Trace* defs_;
  StreamingOptions options_;
  std::vector<bool> syncMask_;
  std::vector<std::vector<trace::FunctionId>> stacks_;  ///< per rank
  std::vector<detail::SosFold> folds_;  ///< per rank, over syncMask_
  SegmentCallback onSegment_;
  std::function<void(const StreamingAlert&)> onAlert_;
  std::vector<double> sosHistory_;  ///< seconds, for the online monitor
  std::vector<double> sortedSosHistory_;  ///< sosHistory_, ascending
  std::size_t completed_ = 0;
};

}  // namespace perfvar::analysis

#endif  // PERFVAR_ANALYSIS_STREAMING_HPP
