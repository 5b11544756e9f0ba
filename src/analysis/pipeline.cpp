#include "analysis/pipeline.hpp"

#include <sstream>

#include "trace/filter.hpp"
#include "util/error.hpp"

namespace perfvar::analysis {

AnalysisResult analyzeTrace(const trace::TraceView& tr,
                            const PipelineOptions& options) {
  if (!tr.quarantined().empty()) {
    // Degraded input (a Salvage-mode load): analyze the healthy ranks as
    // if the quarantined ones were never recorded. The sub-view shares
    // ownership of the filtered storage, so it rides along in the result.
    trace::TraceView view = tr.dropQuarantined();
    AnalysisResult result = analyzeTrace(view, options);
    result.salvagedView = view;
    return result;
  }
  std::unique_ptr<util::ThreadPool> owned;
  util::ThreadPool* pool = util::resolvePool(nullptr, options.threads, owned);

  AnalysisResult result;
  result.profile = profile::FlatProfile::build(tr, pool);
  result.selection = selectDominantFunction(tr, result.profile,
                                            options.dominant);
  result.segmentFunction =
      result.selection.candidateFunction(options.candidateIndex);
  result.sos = std::make_unique<SosResult>(
      analyzeSos(tr, result.segmentFunction, options.sync, pool));
  result.variation = analyzeVariation(*result.sos, options.variation, pool);
  return result;
}

std::string formatDegradation(const trace::TraceView& tr) {
  if (tr.quarantined().empty()) {
    return {};
  }
  std::ostringstream os;
  os << "=== degraded input ===\n"
     << tr.quarantined().size() << '/' << tr.processCount()
     << " ranks quarantined; they are excluded from the analysis\n";
  for (const trace::QuarantinedRank& q : tr.quarantined()) {
    os << "  rank " << q.process << " \"" << q.name
       << "\": " << errorCodeName(q.error) << " (salvaged "
       << q.eventsSalvaged << " events, dropped " << q.eventsDropped
       << ")\n";
  }
  return os.str();
}

std::string formatAnalysis(const trace::TraceView& tr,
                           const DominantSelection& selection,
                           const SosResult& sos,
                           const VariationReport& variation) {
  std::ostringstream os;
  os << "=== dominant-function selection ===\n"
     << formatSelection(tr, selection) << '\n'
     << "=== runtime-variation analysis ===\n"
     << formatVariationReport(sos, variation);
  if (!tr.quarantined().empty()) {
    os << '\n' << formatDegradation(tr);
  }
  return os.str();
}

std::string formatAnalysis(const trace::TraceView& tr,
                           const AnalysisResult& result) {
  return formatAnalysis(tr, result.selection, *result.sos, result.variation);
}

}  // namespace perfvar::analysis
