/// \file export_workflow.cpp
/// The "focused subsequent analysis" workflow around the pipeline:
///   1. analyze a run and export the results (CSV matrices + JSON) for
///      external notebooks,
///   2. slice the trace to the hottest iteration (the paper's filtered
///      re-measurement, done post-hoc) and re-analyze it standalone,
///   3. render the spatial topology view of the per-rank SOS totals,
///      exposing the physical shape of the bottleneck (the cloud).

#include <fstream>
#include <iostream>

#include "analysis/export.hpp"
#include "analysis/pipeline.hpp"
#include "apps/cosmo_specs.hpp"
#include "trace/filter.hpp"
#include "util/format.hpp"
#include "vis/heatmap.hpp"

int main() {
  using namespace perfvar;

  apps::CosmoSpecsConfig cfg;
  cfg.gridX = 10;
  cfg.gridY = 10;
  cfg.timesteps = 40;
  const apps::CosmoSpecsScenario scenario = apps::buildCosmoSpecs(cfg);
  const trace::Trace tr =
      sim::simulate(scenario.program, scenario.simOptions);

  // --- 1. analyze and export ------------------------------------------------
  const analysis::AnalysisResult result = analysis::analyzeTrace(tr);
  {
    std::ofstream csv("cosmo_specs_sos.csv");
    analysis::exportReport(tr, result, analysis::ExportFormat::Csv, csv);
    std::ofstream iters("cosmo_specs_iterations.csv");
    analysis::exportReport(tr, result, analysis::ExportFormat::CsvIterations,
                           iters);
    std::ofstream json("cosmo_specs_analysis.json");
    analysis::exportReport(tr, result, analysis::ExportFormat::Json, json);
  }
  std::cout << "exported cosmo_specs_{sos,iterations}.csv and "
               "cosmo_specs_analysis.json\n";

  // --- 2. slice the hottest iteration and re-analyze -------------------------
  const auto& iterations = result.variation.iterations;
  std::size_t hottest = 0;
  for (std::size_t i = 1; i < iterations.size(); ++i) {
    if (iterations[i].maxSos > iterations[hottest].maxSos) {
      hottest = i;
    }
  }
  const auto& seg =
      result.sos->process(result.variation.slowestProcess())[hottest];
  const trace::Trace sliced =
      trace::sliceTime(tr, seg.segment.enter, seg.segment.leave);
  std::cout << "sliced iteration " << hottest << " ("
            << fmt::seconds(tr.toSeconds(seg.segment.inclusive()))
            << ", " << sliced.eventCount() << " events of "
            << tr.eventCount() << ")\n";
  const analysis::SosResult slicedSos =
      analysis::analyzeSos(sliced, result.segmentFunction);
  const auto slicedReport = analysis::analyzeVariation(slicedSos);
  std::cout << "slice blames "
            << sliced.processes[slicedReport.slowestProcess()].name
            << " (full-run culprit: "
            << tr.processes[result.variation.slowestProcess()].name << ")\n";

  // --- 3. topology view --------------------------------------------------------
  vis::HeatmapOptions topo;
  topo.title = "total SOS-time on the 10x10 process grid";
  vis::renderTopologySvg(result.sos->totalSosPerProcess(), cfg.gridX,
                         cfg.gridY, topo)
      .save("cosmo_specs_topology.svg");
  std::cout << "wrote cosmo_specs_topology.svg - the hotspot has the "
               "cloud's spatial footprint\n";

  return slicedReport.slowestProcess() ==
                 result.variation.slowestProcess()
             ? 0
             : 1;
}
