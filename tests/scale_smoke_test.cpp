/// \file scale_smoke_test.cpp
/// 10k-rank out-of-core smoke (ctest label: scale). Streams a five-figure
/// -rank trace to disk, analyzes it through the lazy backend under a
/// deliberately small shard budget, and checks that resident memory
/// stayed bounded while the report still names the planted culprits.
/// This is the CI-sized stand-in for the 100k-rank walkthrough in the
/// README, which the `scale` CI job also runs at full size.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "analysis/pipeline.hpp"
#include "apps/scale_synthetic.hpp"
#include "trace/stats.hpp"
#include "trace/view.hpp"

namespace {

using namespace perfvar;

TEST(ScaleSmoke, TenThousandRanksAnalyzeUnderBoundedMemory) {
  apps::ScaleConfig cfg;
  cfg.ranks = 10'000;
  cfg.iterations = 3;
  const std::string path =
      "scale_smoke_10k_" + std::to_string(getpid()) + ".pvt";

  const apps::ScaleWriteResult written = apps::writeScaleTrace(path, cfg);
  EXPECT_EQ(written.ranks, 10'000u);
  EXPECT_GT(written.culpritRanks, 0u);

  // 4 MiB decoded-shard budget: ~23 events/rank * 10k ranks would be
  // several MiB decoded at once eagerly; the sweep must stay under
  // the budget.
  trace::TraceViewOptions opts;
  opts.shardBudgetBytes = 4ull << 20;
  const trace::TraceView view = trace::TraceView::openFile(path, opts);
  ASSERT_EQ(view.processCount(), cfg.ranks);
  ASSERT_EQ(view.eventCount(), written.events);

  const trace::TraceStats stats = trace::computeStats(view);
  EXPECT_EQ(stats.eventCount, written.events);

  analysis::PipelineOptions pipeline;
  pipeline.threads = 0;  // all hardware threads
  const analysis::AnalysisResult result =
      analysis::analyzeTrace(view, pipeline);
  EXPECT_EQ(view.functions().name(result.segmentFunction), "compute");
  EXPECT_FALSE(result.variation.culpritProcesses.empty());

  // computeStats and analyzeTrace sweep the ranks four times. The
  // resident set is fixed at open, so later sweeps decode only the ranks
  // outside it.
  const trace::TraceViewStats cache = view.stats();
  EXPECT_GT(cache.shardDecodes, 0u);
  EXPECT_LE(cache.shardDecodes, 3 * cfg.ranks)
      << "each sweep re-decoded the ranks the previous one left resident";
  EXPECT_LE(cache.peakResidentBytes, opts.shardBudgetBytes)
      << "lazy analysis exceeded the decoded-shard budget";

  std::remove(path.c_str());
}

}  // namespace
