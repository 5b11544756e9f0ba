#ifndef PERFVAR_ANALYSIS_PIPELINE_HPP
#define PERFVAR_ANALYSIS_PIPELINE_HPP

/// \file pipeline.hpp
/// One-call entry point running the paper's three steps:
///   1. identify the time-dominant function (Section IV),
///   2. compute SOS-times of its invocations (Section V),
///   3. derive the variation report that drives the visualization
///      (Section VI).
///
/// This is the API that examples and downstream tools use; the individual
/// stages remain available for custom workflows (e.g. the granularity
/// drill-down of Figure 5 re-runs stages 2-3 with candidateIndex > 0).

#include <memory>
#include <string>

#include "analysis/dominant.hpp"
#include "analysis/sos.hpp"
#include "analysis/variation.hpp"
#include "profile/profile.hpp"
#include "util/thread_pool.hpp"

namespace perfvar::analysis {

/// Options of the full pipeline.
struct PipelineOptions {
  DominantOptions dominant{};
  /// Classifier used for the SOS subtraction (and, when
  /// dominant.excludeSynchronization is set, for candidacy filtering).
  SyncClassifier sync{};
  VariationOptions variation{};
  /// Which candidate of the dominant ranking to segment by: 0 = the
  /// time-dominant function, k > 0 = increasingly finer segmentation.
  std::size_t candidateIndex = 0;
  /// Worker threads of the per-rank stages: 1 (the default) runs every
  /// stage inline on the calling thread; 0 = hardware concurrency; any
  /// other value spawns a pool of that many workers for the call. The
  /// result is bit-identical regardless of this value (see analyzeTrace).
  std::size_t threads = 1;
};

/// Complete result of one pipeline run.
struct AnalysisResult {
  profile::FlatProfile profile;
  DominantSelection selection;
  trace::FunctionId segmentFunction = trace::kInvalidFunction;
  std::unique_ptr<SosResult> sos;  ///< heap: SosResult is not assignable
  VariationReport variation;
  /// Set only when the input trace carried quarantined ranks: the filtered
  /// sub-view (dropQuarantined) the analysis actually ran on. SosResult
  /// shares ownership of its backend, so the result is self-contained.
  trace::TraceView salvagedView;
};

/// Run the full pipeline; throws perfvar::Error if no function qualifies
/// as time-dominant (or candidateIndex is out of range).
///
/// The run is the three per-rank stages FlatProfile::build, analyzeSos and
/// analyzeVariation, with dominant-function selection between the first
/// two; each stage shards its per-rank loop over the pool that
/// options.threads resolves to (none when threads == 1: everything runs
/// inline). Determinism: a task writes only its own pre-sized per-rank
/// slots and every cross-rank reduction runs on the calling thread in
/// ascending rank order, so the result is bit-identical for every thread
/// count (tests/parallel_differential_test.cpp proves it over a trace
/// matrix). This is the one analysis entry point.
///
/// Graceful degradation: a trace carrying quarantined ranks (a Salvage-
/// mode load) is analyzed as if those ranks were never present — the
/// pipeline runs on trace::dropQuarantined(trace) (kept alive in
/// AnalysisResult::salvagedView) and produces exactly the result a
/// manually filtered trace would. This throws (like any analysis of an
/// empty trace) when every rank is quarantined.
///
/// Lifetime: for a view borrowed from a Trace (the implicit conversion)
/// the trace must outlive the result; owned and out-of-core views share
/// ownership with the result. The rvalue overload is deleted so passing a
/// temporary trace is a compile error instead of a dangling pointer.
AnalysisResult analyzeTrace(const trace::TraceView& trace,
                            const PipelineOptions& options = {});
AnalysisResult analyzeTrace(trace::Trace&&,
                            const PipelineOptions& = {}) = delete;

/// Render a complete text report (dominant selection + variation report;
/// plus a degraded-input section when `trace` carries quarantined ranks —
/// output for clean traces is byte-for-byte unchanged).
std::string formatAnalysis(const trace::TraceView& trace,
                           const AnalysisResult& result);

/// Same report from individual stage results (the engine renders cached
/// stages without assembling an AnalysisResult; both overloads share one
/// implementation, so their output is identical).
std::string formatAnalysis(const trace::TraceView& trace,
                           const DominantSelection& selection,
                           const SosResult& sos,
                           const VariationReport& variation);

/// The degraded-input section of formatAnalysis: one line per quarantined
/// rank (error class, events salvaged/dropped). Empty string for a clean
/// trace.
std::string formatDegradation(const trace::TraceView& trace);

}  // namespace perfvar::analysis

#endif  // PERFVAR_ANALYSIS_PIPELINE_HPP
