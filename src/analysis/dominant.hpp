#ifndef PERFVAR_ANALYSIS_DOMINANT_HPP
#define PERFVAR_ANALYSIS_DOMINANT_HPP

/// \file dominant.hpp
/// Identification of time-dominant functions (paper Section IV).
///
/// The time-dominant function of a run is the function with the highest
/// aggregated inclusive time among all functions invoked at least
/// `invocationMultiplier * p` times (p = process count; the paper uses
/// multiplier 2). Top-level wrappers like `main` have exactly p
/// invocations and are therefore rejected: they provide no segmentation
/// of the run.
///
/// All qualifying functions are returned ranked by aggregated inclusive
/// time; picking a later candidate yields a *finer* segmentation (used for
/// the drill-down in the paper's Figure 5(c)).

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/sync.hpp"
#include "profile/profile.hpp"
#include "trace/trace.hpp"
#include "trace/view.hpp"

namespace perfvar::analysis {

/// Options of the dominant-function heuristic.
struct DominantOptions {
  /// A candidate needs at least `invocationMultiplier * processCount`
  /// invocations. The paper uses 2.
  std::uint64_t invocationMultiplier = 2;

  /// Exclude synchronization/communication functions from candidacy.
  /// Segmenting by MPI calls would make every segment pure wait time; the
  /// paper implicitly segments by application functions only.
  bool excludeSynchronization = true;

  /// Classifier used when excludeSynchronization is set.
  SyncClassifier syncClassifier{};
};

/// One candidate of the ranking.
struct DominantCandidate {
  trace::FunctionId function = trace::kInvalidFunction;
  std::uint64_t invocations = 0;
  trace::Timestamp aggregatedInclusive = 0;
};

/// Result of the selection.
struct DominantSelection {
  /// Qualifying candidates, ranked by descending aggregated inclusive time.
  /// candidates[0] is the time-dominant function; candidates[k] for k > 0
  /// give increasingly finer segmentations.
  std::vector<DominantCandidate> candidates;

  /// Functions rejected for having fewer than the required invocations but
  /// with an aggregated inclusive time above the winner (diagnostics; e.g.
  /// `main` in the paper's Figure 2).
  std::vector<DominantCandidate> rejectedTopLevel;

  bool hasDominant() const { return !candidates.empty(); }
  const DominantCandidate& dominant() const;
  /// The segmentation function of ranking position `index` (0 = the
  /// time-dominant function, k > 0 = finer segmentations). Throws
  /// perfvar::Error when no function qualifies or `index` is out of range.
  trace::FunctionId candidateFunction(std::size_t index) const;
};

/// Run the selection on a prebuilt profile.
DominantSelection selectDominantFunction(const trace::TraceView& trace,
                                         const profile::FlatProfile& profile,
                                         const DominantOptions& options = {});

/// Convenience overload building the profile internally.
DominantSelection selectDominantFunction(const trace::TraceView& trace,
                                         const DominantOptions& options = {});

/// Human-readable summary of a selection (top candidates, rejections).
std::string formatSelection(const trace::TraceView& trace,
                            const DominantSelection& selection,
                            std::size_t maxCandidates = 5);

}  // namespace perfvar::analysis

#endif  // PERFVAR_ANALYSIS_DOMINANT_HPP
