#ifndef PERFVAR_ANALYSIS_SOS_HPP
#define PERFVAR_ANALYSIS_SOS_HPP

/// \file sos.hpp
/// Synchronization-oblivious segment time (paper Section V).
///
/// For every segment (invocation of the segmentation function) the
/// analyzer computes
///
///     SOS-time = segment duration - sum of the inclusive times of the
///                maximal synchronization invocations inside the segment.
///
/// Subtracting wait/communication time removes the equalizing effect of
/// barriers: a rank that computes fast but waits long and a rank that
/// computes slowly have the same segment duration but very different
/// SOS-times, exposing the true source of a runtime imbalance.
///
/// Per segment, the analyzer additionally accumulates a per-paradigm time
/// breakdown (maximal frames per paradigm) and the delta of every
/// accumulated metric — both used by the case-study reproductions.

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/segments.hpp"
#include "analysis/sync.hpp"
#include "trace/trace.hpp"
#include "trace/view.hpp"

namespace perfvar::util {
class ThreadPool;
}

namespace perfvar::analysis {

inline constexpr std::size_t kParadigmCount = 6;

/// Analysis result of one segment.
struct SegmentAnalysis {
  Segment segment;
  trace::Timestamp syncTime = 0;  ///< subtracted synchronization time
  trace::Timestamp sosTime = 0;   ///< segment duration - syncTime
  /// Time covered by maximal frames of each paradigm inside the segment,
  /// indexed by static_cast<size_t>(Paradigm).
  std::array<trace::Timestamp, kParadigmCount> paradigmTime{};
  /// Per-metric change over the segment: sample-delta sum for accumulated
  /// metrics, last observed value for absolute metrics. Indexed by MetricId.
  std::vector<double> metricDelta;
};

/// SOS analysis result for one segmentation function over a whole trace.
class SosResult {
public:
  SosResult(const trace::TraceView& trace, trace::FunctionId segmentFunction,
            std::vector<std::vector<SegmentAnalysis>> perProcess);

  trace::FunctionId segmentFunction() const { return segmentFunction_; }
  std::size_t processCount() const { return perProcess_.size(); }

  const std::vector<SegmentAnalysis>& process(trace::ProcessId p) const;
  const std::vector<std::vector<SegmentAnalysis>>& all() const {
    return perProcess_;
  }

  /// Maximum number of segments over all processes.
  std::size_t maxSegmentsPerProcess() const;

  /// SOS-time in seconds of segment `i` on process `p`.
  double sosSeconds(trace::ProcessId p, std::size_t i) const;

  /// Segment duration in seconds of segment `i` on process `p`.
  double durationSeconds(trace::ProcessId p, std::size_t i) const;

  /// Dense [process][iteration] matrix of SOS-times in seconds; missing
  /// segments (ragged processes) are filled with NaN.
  std::vector<std::vector<double>> sosMatrixSeconds() const;

  /// Dense matrix of segment durations in seconds (NaN for missing).
  std::vector<std::vector<double>> durationMatrixSeconds() const;

  /// Dense matrix of a metric's per-segment delta (NaN for missing).
  std::vector<std::vector<double>> metricMatrix(trace::MetricId m) const;

  /// All SOS values in seconds, flattened (no NaNs).
  std::vector<double> allSosSeconds() const;

  /// Fraction of the summed segment durations spent in synchronization,
  /// per iteration index (averaged over the processes that have that
  /// iteration). This regenerates the paper's "MPI share grows" series.
  std::vector<double> syncFractionPerIteration() const;

  /// Mean segment duration in seconds per iteration index.
  std::vector<double> meanDurationPerIteration() const;

  /// Per-process totals in seconds: sum of SOS-times over all segments.
  std::vector<double> totalSosPerProcess() const;

  /// Per-process totals of a metric's deltas over all segments.
  std::vector<double> totalMetricPerProcess(trace::MetricId m) const;

  /// The analyzed view. Copies of the view share the backend, so the
  /// result stays valid as long as the underlying storage does (for
  /// borrowed views: as long as the viewed Trace lives).
  const trace::TraceView& trace() const { return view_; }

private:
  trace::TraceView view_;
  trace::FunctionId segmentFunction_;
  std::vector<std::vector<SegmentAnalysis>> perProcess_;
};

/// Run the SOS analysis: segment every process by `segmentFunction` and
/// compute SOS-times with the given synchronization classifier. The
/// per-rank replays are sharded over `pool` (inline when null); the
/// result is bit-identical either way.
///
/// Lifetime: for a borrowed view (the implicit conversion from Trace&)
/// the trace must outlive the SosResult. Passing a temporary Trace is a
/// compile error; out-of-core and owned views share ownership.
SosResult analyzeSos(const trace::TraceView& trace,
                     trace::FunctionId segmentFunction,
                     const SyncClassifier& classifier = SyncClassifier{},
                     util::ThreadPool* pool = nullptr);
SosResult analyzeSos(trace::Trace&&, trace::FunctionId,
                     const SyncClassifier& = SyncClassifier{},
                     util::ThreadPool* = nullptr) = delete;

/// Baseline from the paper's Section V discussion: plain segment durations
/// (no synchronization subtraction). Equivalent to analyzeSos with
/// SyncClassifier::none().
SosResult analyzeSegmentDurations(const trace::TraceView& trace,
                                  trace::FunctionId segmentFunction);
SosResult analyzeSegmentDurations(trace::Trace&&,
                                  trace::FunctionId) = delete;

/// Alternative segmentation for codes without a usable dominant function:
/// fixed time windows of `windowTicks` spanning the whole trace. Every
/// process gets the same windows; a window's "duration" is its span, its
/// syncTime the time covered by maximal synchronization frames inside it.
/// Windows do not align with iterations, so imbalances smear across
/// window boundaries - the ablation benches quantify how much sharper the
/// dominant-function segmentation is. The result's segmentFunction() is
/// trace::kInvalidFunction.
SosResult analyzeSosWindows(const trace::TraceView& trace,
                            trace::Timestamp windowTicks,
                            const SyncClassifier& classifier =
                                SyncClassifier{});
SosResult analyzeSosWindows(trace::Trace&&, trace::Timestamp,
                            const SyncClassifier& = SyncClassifier{}) = delete;

namespace detail {

/// The paper's Section V rule over one rank's events, and its only
/// implementation: analyzeSos and StreamingSos both run it, so their
/// per-segment series agree by construction. Fed one rank's enter, leave
/// and metric events in time order, stack-balanced (the caller replays or
/// checks the call stack), it tracks the open segment, the maximal sync
/// and per-paradigm frames inside it and the metric baselines. reset()
/// lets one fold serve many ranks without reallocating its buffers.
class SosFold {
public:
  /// `functions`, `metrics` and `syncMask` (the classifier's per-function
  /// decision vector) must outlive the fold.
  SosFold(const trace::FunctionRegistry& functions,
          const trace::MetricRegistry& metrics,
          trace::FunctionId segmentFunction, const std::vector<bool>& syncMask)
      : functions_(&functions),
        metrics_(&metrics),
        segmentFunction_(segmentFunction),
        syncMask_(&syncMask) {}

  /// Start rank `p` afresh: nothing open, no metric baseline.
  void reset(trace::ProcessId p);
  /// Enter and metric steps throw Error(MalformedEvent) on an undefined
  /// ref before changing any state.
  void enter(trace::FunctionId fn, trace::Timestamp t);
  void metric(const trace::Event& e);
  /// True when the leave closed a segment; takeSegment() hands it out.
  bool leave(trace::FunctionId fn, trace::Timestamp t);
  SegmentAnalysis takeSegment() { return std::move(current_); }

private:
  const trace::FunctionRegistry* functions_;
  const trace::MetricRegistry* metrics_;
  trace::FunctionId segmentFunction_;
  const std::vector<bool>* syncMask_;

  trace::ProcessId process_ = 0;
  std::uint32_t segmentsDone_ = 0;
  std::size_t segNesting_ = 0;     ///< nesting inside the segment function
  trace::Timestamp segStart_ = 0;  ///< enter of the outermost invocation
  SegmentAnalysis current_;        ///< accumulators of the open segment
  std::size_t syncNesting_ = 0;    ///< nesting inside sync functions
  trace::Timestamp syncStart_ = 0;
  std::array<std::size_t, kParadigmCount> paradigmNesting_{};
  std::array<trace::Timestamp, kParadigmCount> paradigmStart_{};
  std::vector<double> lastMetric_;  ///< baseline of the metric deltas
};

/// SOS analysis of a single process (row `p` of analyzeSos): `fold`,
/// reset to `p`, driven by a replay of the rank's events.
std::vector<SegmentAnalysis> analyzeSosProcess(const trace::TraceView& trace,
                                               trace::ProcessId p,
                                               SosFold& fold);

}  // namespace detail

}  // namespace perfvar::analysis

#endif  // PERFVAR_ANALYSIS_SOS_HPP
