/// Regenerates paper Figure 4: the COSMO-SPECS case study on 100 ranks.
///   (a) timeline with a growing MPI (red) share over the run;
///   (b) SOS-time overlay highlighting ranks 44, 45, 54, 55, 64, 65, with
///       rank 54 the single worst.
/// Also reports the baseline comparison motivating SOS-time: plain segment
/// durations cannot localize the culprit ranks.

#include <algorithm>
#include <iostream>

#include "analysis/baselines.hpp"
#include "analysis/pipeline.hpp"
#include "apps/cosmo_specs.hpp"
#include "bench/bench_util.hpp"
#include "util/format.hpp"
#include "vis/chart.hpp"
#include "vis/heatmap.hpp"
#include "vis/timeline.hpp"

int main() {
  using namespace perfvar;
  bench::Verdict verdict;

  bench::header("Figure 4: COSMO-SPECS load imbalance (100 ranks)");
  const apps::CosmoSpecsScenario scenario = apps::buildCosmoSpecs();
  sim::SimReport simReport;
  const trace::Trace tr =
      sim::simulate(scenario.program, scenario.simOptions, &simReport);
  std::cout << "  simulated " << tr.processCount() << " ranks, "
            << simReport.events << " events, makespan "
            << fmt::seconds(simReport.makespan) << '\n';

  const analysis::AnalysisResult result = analysis::analyzeTrace(tr);

  // --- (a) MPI share over the run -----------------------------------------
  bench::header("Figure 4(a): MPI share per iteration decile");
  const auto sync = result.sos->syncFractionPerIteration();
  std::cout << "  series:";
  std::vector<double> deciles;
  for (std::size_t d = 0; d < 10; ++d) {
    const std::size_t lo = d * sync.size() / 10;
    const std::size_t hi = std::max(lo + 1, (d + 1) * sync.size() / 10);
    double avg = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      avg += sync[i];
    }
    avg /= static_cast<double>(hi - lo);
    deciles.push_back(avg);
    std::cout << ' ' << fmt::percent(avg);
  }
  std::cout << "\n  sparkline: " << fmt::sparkline(sync) << '\n';
  const bool growing = deciles.back() > 1.5 * deciles.front();
  bench::paperRow("MPI share trend over run", "increasing, dominant late",
                  fmt::percent(deciles.front()) + " -> " +
                      fmt::percent(deciles.back()),
                  growing);
  verdict.check("MPI share grows", growing);

  const bool slowdown = result.variation.durationTrend.slope > 0.0 &&
                        result.variation.durationTrend.r2 > 0.8;
  bench::paperRow("segment durations over run", "gradually increasing",
                  fmt::seconds(result.variation.durationTrend.slope) +
                      "/iteration (r2 " +
                      fmt::fixed(result.variation.durationTrend.r2, 2) + ")",
                  slowdown);
  verdict.check("durations increase", slowdown);

  // --- (b) SOS hotspot map ---------------------------------------------------
  bench::header("Figure 4(b): SOS-time hotspot ranking");
  std::cout << "  top 8 processes by total SOS-time:\n";
  for (std::size_t i = 0; i < 8; ++i) {
    const auto p = result.variation.processesBySos[i];
    std::cout << "    " << tr.processes[p].name << "  "
              << fmt::seconds(result.variation.processes[p].totalSos)
              << "  z " << fmt::fixed(result.variation.processes[p].totalZ, 1)
              << '\n';
  }
  std::vector<trace::ProcessId> top6(result.variation.processesBySos.begin(),
                                     result.variation.processesBySos.begin() +
                                         6);
  std::sort(top6.begin(), top6.end());
  const std::vector<trace::ProcessId> expected = {44, 45, 54, 55, 64, 65};
  bench::paperRow("hot processes", "44, 45, 54, 55, 64, 65",
                  [&] {
                    std::string s;
                    for (const auto p : top6) {
                      s += std::to_string(p) + " ";
                    }
                    return s;
                  }(),
                  top6 == expected);
  bench::paperRow("worst process", "54 (\"particularly Process 54\")",
                  std::to_string(result.variation.slowestProcess()),
                  result.variation.slowestProcess() == 54);
  verdict.check("six hot ranks", top6 == expected);
  verdict.check("rank 54 worst", result.variation.slowestProcess() == 54);

  // --- baseline comparison ----------------------------------------------------
  bench::header("baseline: plain durations vs. SOS-time localization");
  const auto sosOutcome = analysis::outcomeFromSos(*result.sos, "sos-time");
  const auto durOutcome =
      analysis::detectBySegmentDuration(tr, result.segmentFunction);
  std::cout << "  rank of true culprit (54): sos-time #"
            << sosOutcome.rankOf(54) << " (separation z "
            << fmt::fixed(sosOutcome.topSeparation(), 1)
            << "), segment-duration #" << durOutcome.rankOf(54)
            << " (separation z " << fmt::fixed(durOutcome.topSeparation(), 1)
            << ")\n";
  verdict.check("sos ranks culprit first", sosOutcome.rankOf(54) == 0);
  verdict.check("sos separation dominates duration baseline",
                sosOutcome.topSeparation() >
                    10.0 * std::max(0.1, durOutcome.topSeparation()));

  // --- renders -------------------------------------------------------------------
  const std::string dir = bench::artifactsDir();
  vis::TimelineOptions tl;
  tl.title = "COSMO-SPECS timeline (100 ranks)";
  tl.messageLines = false;
  const auto colors = vis::FunctionColors::standard(tr);
  vis::renderTimelineSvg(tr, colors, tl).save(dir + "/fig4a_timeline.svg");
  vis::HeatmapOptions heat;
  heat.title = "COSMO-SPECS SOS-time (rank x iteration)";
  vis::renderHeatmapSvg(result.sos->sosMatrixSeconds(), heat)
      .save(dir + "/fig4b_sos.svg");

  vis::Series mpiSeries;
  mpiSeries.label = "MPI share";
  mpiSeries.ys = sync;
  mpiSeries.color = vis::seriesColor(1);
  mpiSeries.filled = true;
  vis::Series durSeries;
  durSeries.label = "mean iteration duration (norm.)";
  durSeries.ys = result.sos->meanDurationPerIteration();
  {
    double peak = 0.0;
    for (const double v : durSeries.ys) {
      peak = std::max(peak, v);
    }
    for (double& v : durSeries.ys) {
      v = peak > 0.0 ? v / peak : 0.0;
    }
  }
  vis::ChartOptions chart;
  chart.title = "COSMO-SPECS: MPI share and iteration duration over the run";
  chart.xLabel = "iteration";
  chart.percentY = true;
  chart.yMin = 0.0;
  chart.yMax = 1.0;
  vis::renderLineChart({mpiSeries, durSeries}, chart)
      .save(dir + "/fig4a_series.svg");
  std::cout << "  wrote " << dir << "/fig4a_timeline.svg, "
            << dir << "/fig4a_series.svg, " << dir << "/fig4b_sos.svg\n";

  return verdict.exitCode();
}
