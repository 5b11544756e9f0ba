#include "analysis/dominant.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/format.hpp"

namespace perfvar::analysis {

const DominantCandidate& DominantSelection::dominant() const {
  PERFVAR_REQUIRE(!candidates.empty(), "no dominant function was found");
  return candidates.front();
}

trace::FunctionId DominantSelection::candidateFunction(
    std::size_t index) const {
  PERFVAR_REQUIRE(hasDominant(),
                  "no function qualifies as time-dominant; lower the "
                  "invocation multiplier or check the instrumentation");
  PERFVAR_REQUIRE(index < candidates.size(),
                  "candidateIndex exceeds the number of dominant candidates");
  return candidates[index].function;
}

DominantSelection selectDominantFunction(const trace::TraceView& tr,
                                         const profile::FlatProfile& profile,
                                         const DominantOptions& options) {
  PERFVAR_REQUIRE(options.invocationMultiplier >= 1,
                  "invocationMultiplier must be at least 1");
  const std::uint64_t required =
      options.invocationMultiplier * static_cast<std::uint64_t>(tr.processCount());
  const std::vector<bool> syncMask =
      options.excludeSynchronization
          ? options.syncClassifier.mask(tr)
          : std::vector<bool>(tr.functions().size(), false);

  DominantSelection sel;
  for (const profile::FunctionStats& s : profile.byInclusiveTime()) {
    if (syncMask[s.function]) {
      continue;
    }
    if (s.invocations >= required) {
      sel.candidates.push_back(
          DominantCandidate{s.function, s.invocations, s.inclusive});
    } else if (sel.candidates.empty()) {
      // Functions that outrank the eventual winner but fail the
      // invocation-count requirement (e.g. `main`).
      sel.rejectedTopLevel.push_back(
          DominantCandidate{s.function, s.invocations, s.inclusive});
    }
  }
  return sel;
}

DominantSelection selectDominantFunction(const trace::TraceView& tr,
                                         const DominantOptions& options) {
  const auto profile = profile::FlatProfile::build(tr);
  return selectDominantFunction(tr, profile, options);
}

std::string formatSelection(const trace::TraceView& tr,
                            const DominantSelection& sel,
                            std::size_t maxCandidates) {
  std::ostringstream os;
  if (!sel.rejectedTopLevel.empty()) {
    os << "rejected (too few invocations):\n";
    for (const auto& c : sel.rejectedTopLevel) {
      os << "  " << tr.functions().name(c.function) << "  inclusive "
         << fmt::seconds(tr.toSeconds(c.aggregatedInclusive)) << ", "
         << c.invocations << " invocation(s)\n";
    }
  }
  if (sel.candidates.empty()) {
    os << "no function qualifies as time-dominant\n";
    return os.str();
  }
  os << "candidates (ranked by aggregated inclusive time):\n";
  const std::size_t n = std::min(maxCandidates, sel.candidates.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = sel.candidates[i];
    os << "  " << (i == 0 ? "[dominant] " : "           ")
       << tr.functions().name(c.function) << "  inclusive "
       << fmt::seconds(tr.toSeconds(c.aggregatedInclusive)) << ", "
       << c.invocations << " invocation(s)\n";
  }
  if (sel.candidates.size() > n) {
    os << "  ... " << (sel.candidates.size() - n) << " more\n";
  }
  return os.str();
}

}  // namespace perfvar::analysis
