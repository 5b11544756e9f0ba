/// End-to-end reproductions of the paper's three case studies at reduced
/// (CI-friendly) scale plus one full-scale sanity pass per study: simulate
/// the workload, run the complete pipeline, and check that the analysis
/// reaches the paper's conclusions.

#include <gtest/gtest.h>

#include "analysis/baselines.hpp"
#include "analysis/correlate.hpp"
#include "analysis/pipeline.hpp"
#include "apps/cosmo_specs.hpp"
#include "apps/cosmo_specs_fd4.hpp"
#include "apps/wrf.hpp"
#include "trace/binary_io.hpp"
#include "vis/timeline.hpp"
#include "lint/lint.hpp"

#include <cstdio>
#include <sstream>

namespace perfvar {
namespace {

TEST(CaseStudyA, CosmoSpecsFullScale) {
  const apps::CosmoSpecsScenario scenario = apps::buildCosmoSpecs();
  const trace::Trace tr =
      sim::simulate(scenario.program, scenario.simOptions);
  lint::requireStructurallyValid(tr);

  const analysis::AnalysisResult result = analysis::analyzeTrace(tr);
  // The heuristic picks the per-timestep wrapper as dominant.
  EXPECT_EQ(result.segmentFunction, scenario.iterationFunction);

  // Paper: "Several processes (middle) exhibit higher runtimes" - the six
  // cloud ranks are the top culprits and 54 is the worst.
  ASSERT_GE(result.variation.culpritProcesses.size(), 6u);
  EXPECT_EQ(result.variation.slowestProcess(), scenario.hottestRank);
  std::vector<trace::ProcessId> top6(
      result.variation.processesBySos.begin(),
      result.variation.processesBySos.begin() + 6);
  std::sort(top6.begin(), top6.end());
  EXPECT_EQ(top6, (std::vector<trace::ProcessId>{44, 45, 54, 55, 64, 65}));

  // Paper: "the fraction of MPI increases" - sync share grows monotonically
  // in a smoothed sense (last quarter > first quarter).
  const auto sync = result.sos->syncFractionPerIteration();
  double early = 0.0;
  double late = 0.0;
  const std::size_t q = sync.size() / 4;
  for (std::size_t i = 0; i < q; ++i) {
    early += sync[i];
    late += sync[sync.size() - 1 - i];
  }
  EXPECT_GT(late, 1.5 * early);

  // Paper: segment durations increase over the run.
  EXPECT_GT(result.variation.durationTrend.slope, 0.0);
  EXPECT_GT(result.variation.durationTrend.r2, 0.8);
}

TEST(CaseStudyA, SosLocalizesWhereDurationCannot) {
  apps::CosmoSpecsConfig cfg;
  cfg.gridX = 6;
  cfg.gridY = 6;
  cfg.timesteps = 25;
  const apps::CosmoSpecsScenario scenario = apps::buildCosmoSpecs(cfg);
  const trace::Trace tr =
      sim::simulate(scenario.program, scenario.simOptions);
  const analysis::AnalysisResult result = analysis::analyzeTrace(tr);

  const auto sos = analysis::outcomeFromSos(*result.sos, "sos-time");
  const auto duration =
      analysis::detectBySegmentDuration(tr, result.segmentFunction);
  EXPECT_EQ(sos.rankOf(scenario.hottestRank), 0u);
  // Barriers equalize durations: separation of the duration ranking is
  // meaningless (orders of magnitude below the SOS separation).
  EXPECT_GT(sos.topSeparation(), 10.0 * std::abs(duration.topSeparation()));
}

TEST(CaseStudyB, Fd4InterruptionDrilldown) {
  apps::CosmoSpecsFd4Config cfg;
  cfg.ranks = 32;
  cfg.blocksX = 16;
  cfg.blocksY = 16;
  cfg.iterations = 10;
  cfg.innerTimesteps = 5;
  cfg.interruptRank = 20;
  cfg.interruptIteration = 6;
  cfg.interruptInnerStep = 2;
  const apps::CosmoSpecsFd4Scenario scenario = apps::buildCosmoSpecsFd4(cfg);
  const trace::Trace tr =
      sim::simulate(scenario.program, scenario.simOptions);
  lint::requireStructurallyValid(tr);

  // Coarse: the dominant function is the coupling iteration; the top
  // hotspot is (rank 20, iteration 6).
  const analysis::AnalysisResult coarse = analysis::analyzeTrace(tr);
  EXPECT_EQ(coarse.segmentFunction, scenario.iterationFunction);
  ASSERT_FALSE(coarse.variation.hotspots.empty());
  EXPECT_EQ(coarse.variation.hotspots[0].process, scenario.culpritRank);
  EXPECT_EQ(coarse.variation.hotspots[0].iteration,
            scenario.culpritIteration);

  // Fine: candidate 1 segments by specs_timestep and isolates the single
  // interrupted invocation.
  analysis::PipelineOptions fineOpts;
  fineOpts.candidateIndex = 1;
  const analysis::AnalysisResult fine = analysis::analyzeTrace(tr, fineOpts);
  EXPECT_EQ(fine.segmentFunction, scenario.specsStepFunction);
  ASSERT_FALSE(fine.variation.hotspots.empty());
  EXPECT_EQ(fine.variation.hotspots[0].process, scenario.culpritRank);
  EXPECT_EQ(fine.variation.hotspots[0].iteration,
            scenario.culpritFineSegment);

  // Root cause: the interrupted invocation has far fewer cycles than its
  // wall time implies (PAPI_TOT_CYC low - paper Section VII-B).
  const auto cycles = tr.metrics.find("PAPI_TOT_CYC");
  ASSERT_TRUE(cycles.has_value());
  const auto& seg =
      fine.sos->process(scenario.culpritRank)[scenario.culpritFineSegment];
  const double wall = tr.toSeconds(seg.segment.inclusive());
  const double cycleTime = seg.metricDelta[*cycles] / 2.5e9;
  EXPECT_LT(cycleTime, 0.2 * wall);

  // The interruption is invisible to the aggregated profile baseline: the
  // one-off delay is diluted across the whole run, so rank 20 does not
  // stand out anywhere near as clearly.
  const auto profile = analysis::detectByProfile(tr);
  const auto sosOutcome = analysis::outcomeFromSos(*fine.sos, "sos");
  EXPECT_EQ(sosOutcome.rankedProcesses[0], scenario.culpritRank);
  EXPECT_GT(fine.variation.hotspots[0].globalZ, 50.0);
}

TEST(CaseStudyC, WrfFpeCounterCorrelation) {
  apps::WrfConfig cfg;
  cfg.gridX = 8;
  cfg.gridY = 8;
  cfg.timesteps = 30;
  const apps::WrfScenario scenario = apps::buildWrf(cfg);
  const trace::Trace tr =
      sim::simulate(scenario.program, scenario.simOptions);
  lint::requireStructurallyValid(tr);

  const analysis::AnalysisResult result = analysis::analyzeTrace(tr);
  EXPECT_EQ(result.segmentFunction, scenario.iterationFunction);
  EXPECT_EQ(result.variation.slowestProcess(), scenario.culpritRank);
  ASSERT_EQ(result.variation.culpritProcesses.size(), 1u);
  EXPECT_EQ(result.variation.culpritProcesses[0], scenario.culpritRank);

  // Paper: ~25% MPI share during iterations.
  const auto sync = result.sos->syncFractionPerIteration();
  double avg = 0.0;
  for (const double s : sync) {
    avg += s;
  }
  avg /= static_cast<double>(sync.size());
  EXPECT_GT(avg, 0.10);
  EXPECT_LT(avg, 0.40);

  // Paper: the FPU-exception counter "perfectly matches" the SOS map.
  const auto fpe = tr.metrics.find(scenario.fpExceptionMetricName);
  ASSERT_TRUE(fpe.has_value());
  const auto correlation = analysis::correlateMetric(*result.sos, *fpe);
  EXPECT_GT(correlation.processPearson, 0.95);
  EXPECT_GT(correlation.segmentPearson, 0.8);
  EXPECT_TRUE(correlation.topProcessMatches);
}

TEST(Integration, CaseStudyTraceSurvivesSerialization) {
  apps::CosmoSpecsConfig cfg;
  cfg.gridX = 4;
  cfg.gridY = 4;
  cfg.timesteps = 10;
  const apps::CosmoSpecsScenario scenario = apps::buildCosmoSpecs(cfg);
  const trace::Trace tr =
      sim::simulate(scenario.program, scenario.simOptions);

  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  trace::writeBinary(tr, buf);
  const trace::Trace loaded = trace::readBinary(buf);

  // Identical analysis results on the round-tripped trace.
  const auto a = analysis::analyzeTrace(tr);
  const auto b = analysis::analyzeTrace(loaded);
  EXPECT_EQ(a.segmentFunction, b.segmentFunction);
  EXPECT_EQ(a.variation.slowestProcess(), b.variation.slowestProcess());
  EXPECT_EQ(a.sos->allSosSeconds(), b.sos->allSosSeconds());
}

TEST(Integration, TimelineRendersForAllCaseStudies) {
  apps::WrfConfig cfg;
  cfg.gridX = 4;
  cfg.gridY = 4;
  cfg.timesteps = 6;
  cfg.fpeRank = 9;
  const apps::WrfScenario scenario = apps::buildWrf(cfg);
  const trace::Trace tr =
      sim::simulate(scenario.program, scenario.simOptions);
  const auto colors = vis::FunctionColors::standard(tr);
  vis::TimelineOptions opts;
  opts.bins = 200;
  const std::string doc = vis::renderTimelineSvg(tr, colors, opts).finalize();
  // One row per rank, each starting at the plot's left edge (x = 4, rows
  // 500/P px tall from y = 4), and MPI in the legend.
  const double rowHeight = 500.0 / static_cast<double>(tr.processCount());
  for (trace::ProcessId p = 0; p < tr.processCount(); ++p) {
    char row[48];
    std::snprintf(row, sizeof row, "<rect x=\"4.00\" y=\"%.2f\" ",
                  4.0 + rowHeight * static_cast<double>(p));
    EXPECT_NE(doc.find(row), std::string::npos) << "rank " << p;
  }
  EXPECT_NE(doc.find(">MPI</text>"), std::string::npos);
  EXPECT_EQ(doc.substr(doc.size() - 7), "</svg>\n");
  const auto shares = vis::paradigmShareOverTime(tr, 50);
  // Somewhere in the run MPI occupies a visible share.
  const auto& mpi = shares[static_cast<std::size_t>(trace::Paradigm::MPI)];
  EXPECT_GT(*std::max_element(mpi.begin(), mpi.end()), 0.05);
}

}  // namespace
}  // namespace perfvar
