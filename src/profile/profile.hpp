#ifndef PERFVAR_PROFILE_PROFILE_HPP
#define PERFVAR_PROFILE_PROFILE_HPP

/// \file profile.hpp
/// Flat profiles: per-function inclusive/exclusive time and invocation
/// counts, per process and aggregated across the whole trace.
///
/// Inclusive vs. exclusive time follows the paper's Figure 1: the inclusive
/// time of an invocation spans enter to leave including children; the
/// exclusive time excludes the inclusive times of direct children.
///
/// Note on recursion: when a function appears on the stack within itself,
/// each invocation still contributes its full inclusive span, so the
/// aggregated inclusive time of a recursive function can exceed wall time.
/// This matches the conventional trace-profile semantics (and Score-P).

#include <string>
#include <vector>

#include "trace/replay.hpp"
#include "trace/trace.hpp"
#include "trace/view.hpp"

namespace perfvar::util {
class ThreadPool;
}

namespace perfvar::profile {

/// Accumulated statistics of one function on one process (or aggregated).
struct FunctionStats {
  trace::FunctionId function = trace::kInvalidFunction;
  std::uint64_t invocations = 0;
  trace::Timestamp inclusive = 0;  ///< ticks
  trace::Timestamp exclusive = 0;  ///< ticks
  trace::Timestamp minInclusive = 0;
  trace::Timestamp maxInclusive = 0;

  void add(trace::Timestamp inc, trace::Timestamp exc);
  void merge(const FunctionStats& other);
};

/// Flat profile of a trace.
class FlatProfile {
public:
  /// Build the profile of a structurally valid trace (accepts a Trace via
  /// the implicit TraceView conversion). The per-rank replays are sharded
  /// over `pool` (inline when null); rows merge in ascending rank order,
  /// so the profile is identical either way.
  static FlatProfile build(const trace::TraceView& trace,
                           util::ThreadPool* pool = nullptr);

  /// Stats of a single process (row `p` of the full profile); build()
  /// runs it once per rank.
  static std::vector<FunctionStats> buildProcess(const trace::TraceView& trace,
                                                 trace::ProcessId p);

  /// Assemble a full profile from per-process rows (as produced by
  /// buildProcess, one row per process of `trace`), aggregating in
  /// ascending process order. All aggregation is integer sums and min/max,
  /// so the result does not depend on how the rows were computed.
  static FlatProfile fromPerProcess(
      const trace::TraceView& trace,
      std::vector<std::vector<FunctionStats>> perProcess);

  std::size_t processCount() const { return perProcess_.size(); }

  /// Stats of `f` on process `p` (zeroed if the function never ran there).
  const FunctionStats& process(trace::ProcessId p, trace::FunctionId f) const;

  /// Aggregated stats of `f` across all processes.
  const FunctionStats& aggregated(trace::FunctionId f) const;

  /// All aggregated stats with at least one invocation, sorted by
  /// descending aggregated inclusive time.
  std::vector<FunctionStats> byInclusiveTime() const;

  /// Per-process total exclusive time of functions accepted by `keep`
  /// (e.g. non-MPI functions): the classic profile view of computational
  /// load per rank.
  std::vector<trace::Timestamp> exclusiveTimePerProcess(
      const std::vector<bool>& keep) const;

  std::size_t functionCount() const { return aggregated_.size(); }

private:
  std::vector<std::vector<FunctionStats>> perProcess_;  ///< [proc][func]
  std::vector<FunctionStats> aggregated_;               ///< [func]
};

/// Render the top-n functions of a profile as a monospace table.
std::string formatTopFunctions(const trace::TraceView& trace,
                               const FlatProfile& profile, std::size_t n);

}  // namespace perfvar::profile

#endif  // PERFVAR_PROFILE_PROFILE_HPP
