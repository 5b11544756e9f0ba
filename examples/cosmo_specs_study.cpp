/// \file cosmo_specs_study.cpp
/// Reproduction of the paper's first case study (Section VII-A): the
/// COSMO-SPECS weather code on 100 ranks develops a growing load
/// imbalance because the static decomposition pins the (growing) cloud
/// to six ranks. The SOS-time overlay points straight at them.

#include <iostream>

#include "analysis/baselines.hpp"
#include "analysis/pipeline.hpp"
#include "apps/cosmo_specs.hpp"
#include "trace/stats.hpp"
#include "util/format.hpp"
#include "vis/heatmap.hpp"
#include "vis/timeline.hpp"

int main() {
  using namespace perfvar;

  std::cout << "=== COSMO-SPECS case study (load imbalance) ===\n";
  const apps::CosmoSpecsScenario scenario = apps::buildCosmoSpecs();
  sim::SimReport simReport;
  const trace::Trace tr =
      sim::simulate(scenario.program, scenario.simOptions, &simReport);
  std::cout << "simulated " << tr.processCount() << " ranks, "
            << simReport.events << " events, makespan "
            << fmt::seconds(simReport.makespan) << "\n\n";

  // Timeline view (Figure 4(a)): purple SPECS dominates; MPI (red) grows.
  vis::TimelineOptions tl;
  tl.title = "COSMO-SPECS timeline (100 ranks)";
  tl.messageLines = false;
  auto colors = vis::FunctionColors::standard(tr);
  vis::renderTimelineSvg(tr, colors, tl).save("cosmo_specs_timeline.svg");

  const auto mpiShare = vis::paradigmShareOverTime(tr, 10);
  std::cout << "MPI share over run (10 bins): ";
  for (const double s : mpiShare[static_cast<std::size_t>(
           trace::Paradigm::MPI)]) {
    std::cout << fmt::percent(s) << ' ';
  }
  std::cout << "\n\n";

  // The paper's pipeline (Figure 4(b)).
  const analysis::AnalysisResult result = analysis::analyzeTrace(tr);
  std::cout << analysis::formatAnalysis(tr, result) << '\n';

  vis::HeatmapOptions heat;
  heat.title = "COSMO-SPECS SOS-time per (rank, iteration)";
  for (const auto& p : tr.processes) {
    heat.rowLabels.push_back(p.name);
  }
  const auto matrix = result.sos->sosMatrixSeconds();
  vis::renderHeatmapSvg(matrix, heat).save("cosmo_specs_sos.svg");
  std::cout << vis::renderHeatmapAscii(matrix, heat, 60) << '\n';

  // Contrast with the plain segment-duration baseline: barriers smear the
  // imbalance over all ranks, hiding the culprits.
  const auto sosOutcome = analysis::outcomeFromSos(*result.sos, "sos-time");
  const auto durOutcome =
      analysis::detectBySegmentDuration(tr, result.segmentFunction);
  std::cout << "rank of true culprit (process "
            << scenario.hottestRank << "):\n"
            << "  sos-time:         #" << sosOutcome.rankOf(
                   scenario.hottestRank)
            << " (separation z " << fmt::fixed(sosOutcome.topSeparation(), 1)
            << ")\n"
            << "  segment-duration: #" << durOutcome.rankOf(
                   scenario.hottestRank)
            << " (separation z " << fmt::fixed(durOutcome.topSeparation(), 1)
            << ")\n";
  std::cout << "wrote cosmo_specs_{timeline,sos}.svg\n";

  return sosOutcome.rankOf(scenario.hottestRank) == 0 ? 0 : 1;
}
