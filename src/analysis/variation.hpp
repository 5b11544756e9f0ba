#ifndef PERFVAR_ANALYSIS_VARIATION_HPP
#define PERFVAR_ANALYSIS_VARIATION_HPP

/// \file variation.hpp
/// Runtime-variation statistics and hotspot detection over SOS-times.
///
/// This layer turns the raw per-segment SOS-times into the guidance the
/// paper's visualization provides: which (process, iteration) cells are
/// exceptionally slow, which processes are persistently overloaded, and
/// whether the run drifts slower over time.
///
/// Outliers are scored with a robust z-score (median/MAD based) so that a
/// handful of extreme segments cannot mask themselves by inflating the
/// scale estimate.
///
/// The analysis is two steps. variationBasis() computes everything no
/// threshold changes: the statistics and every segment's scores.
/// classifyVariation() picks culprits and hotspots from a basis under a
/// VariationOptions, one pass with nothing recomputed, which is what lets
/// a drill-down move a threshold over one cached SOS result cheaply.

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/sos.hpp"
#include "util/stats.hpp"

namespace perfvar::analysis {

/// Across-process statistics of one iteration (segment index).
struct IterationStats {
  std::size_t iteration = 0;
  std::size_t processCount = 0;  ///< processes that have this iteration
  double minSos = 0.0;
  double maxSos = 0.0;
  double meanSos = 0.0;
  double stddevSos = 0.0;
  double meanDuration = 0.0;
  /// Load imbalance lambda = max/mean - 1 of the SOS-times.
  double imbalance = 0.0;
  trace::ProcessId slowestProcess = 0;
};

/// Whole-run statistics of one process.
struct ProcessStats {
  trace::ProcessId process = 0;
  std::size_t segments = 0;
  double totalSos = 0.0;
  double meanSos = 0.0;
  double maxSos = 0.0;
  /// Robust z-score of this process' total SOS against all processes.
  double totalZ = 0.0;
};

/// One performance hotspot: an exceptionally slow segment.
struct Hotspot {
  trace::ProcessId process = 0;
  std::size_t iteration = 0;
  double sosSeconds = 0.0;
  double durationSeconds = 0.0;
  /// Robust z against all segments of the run.
  double globalZ = 0.0;
  /// Robust z against the other processes of the same iteration.
  double iterationZ = 0.0;
};

/// Options of the variation analysis.
struct VariationOptions {
  /// Robust-z threshold above which a segment is reported as a hotspot.
  double outlierThreshold = 3.5;
  /// Robust-z threshold above which a process counts as a culprit.
  double processThreshold = 3.0;
  /// Maximum number of hotspots kept (ranked by global z).
  std::size_t maxHotspots = 100;
};

/// The statistics of a variation analysis that no threshold changes.
struct VariationStats {
  std::vector<IterationStats> iterations;
  std::vector<ProcessStats> processes;      ///< indexed by process id
  std::vector<trace::ProcessId> processesBySos;  ///< ranked, slowest first

  /// OLS trend of the mean segment *duration* per iteration
  /// (seconds per iteration); positive slope = run gets slower.
  stats::OlsFit durationTrend;
  /// OLS trend of the mean SOS-time per iteration.
  stats::OlsFit sosTrend;

  /// Robust location/scale of all SOS values (seconds).
  double sosMedian = 0.0;
  double sosMad = 0.0;
  stats::Summary sosSummary;

  /// Most suspicious process (first of processesBySos); the paper's
  /// "follow the red" answer.
  trace::ProcessId slowestProcess() const;
};

/// Complete variation-analysis result: the statistics plus what the
/// thresholds select from them.
struct VariationReport : VariationStats {
  std::vector<trace::ProcessId> culpritProcesses;  ///< totalZ >= threshold
  std::vector<Hotspot> hotspots;            ///< ranked by globalZ, desc
};

/// The threshold-free part of the variation analysis of one SOS result:
/// its statistics plus every segment's scores. An AnalysisEngine caches
/// one basis next to each SOS result, so a query that only moves a
/// threshold re-runs classifyVariation() alone.
struct VariationBasis : VariationStats {
  /// Robust z of every segment's SOS-time against all segments of the
  /// run, and against the other processes of its iteration (each
  /// iteration's leave-one-out z-vector). Both are laid out like the SOS
  /// result: process by process, each in segment order.
  std::vector<double> globalZ;
  std::vector<double> iterationZ;
};

/// Compute the basis of an SOS result. The per-iteration and per-process
/// loops are sharded over `pool` (inline when null); every cross-cutting
/// reduction (global summary, rankings, trends) stays on the calling
/// thread, so the basis is bit-identical either way.
VariationBasis variationBasis(const SosResult& sos,
                              util::ThreadPool* pool = nullptr);

/// Select culprits (totalZ >= processThreshold) and hotspots (globalZ >=
/// outlierThreshold, ranked by globalZ desc, then process, then
/// iteration, at most maxHotspots) from `basis`, which must be
/// variationBasis(sos). One pass over the segments; no statistic is
/// recomputed.
VariationReport classifyVariation(const SosResult& sos,
                                  const VariationBasis& basis,
                                  const VariationOptions& options = {});

/// The whole variation analysis of an SOS result:
/// classifyVariation(sos, variationBasis(sos, pool), options).
VariationReport analyzeVariation(const SosResult& sos,
                                 const VariationOptions& options = {},
                                 util::ThreadPool* pool = nullptr);

/// Multi-line human-readable report.
std::string formatVariationReport(const SosResult& sos,
                                  const VariationReport& report,
                                  std::size_t maxRows = 10);

}  // namespace perfvar::analysis

#endif  // PERFVAR_ANALYSIS_VARIATION_HPP
