#include <cmath>
#include <gtest/gtest.h>

#include "analysis/baselines.hpp"
#include "analysis/correlate.hpp"
#include "analysis/sync.hpp"
#include "apps/paper_examples.hpp"
#include "trace/builder.hpp"

namespace perfvar::analysis {
namespace {

// --- SyncClassifier -----------------------------------------------------------

TEST(SyncClassifier, ParadigmPolicyFlagsAllMpi) {
  const SyncClassifier c;
  EXPECT_TRUE(c.isSync({"MPI_Isend", "MPI", trace::Paradigm::MPI}));
  EXPECT_TRUE(c.isSync({"MPI_Barrier", "MPI", trace::Paradigm::MPI}));
  EXPECT_FALSE(c.isSync({"solve", "APP", trace::Paradigm::Compute}));
  EXPECT_FALSE(c.isSync({"fwrite", "IO", trace::Paradigm::IO}));
}

TEST(SyncClassifier, ParadigmPolicyFlagsOnlyOpenMpSyncConstructs) {
  const SyncClassifier c;
  EXPECT_TRUE(c.isSync({"omp barrier", "OMP", trace::Paradigm::OpenMP}));
  EXPECT_TRUE(c.isSync({"omp critical", "OMP", trace::Paradigm::OpenMP}));
  EXPECT_FALSE(
      c.isSync({"omp parallel for", "OMP", trace::Paradigm::OpenMP}));
}

TEST(SyncClassifier, BlockingOnlyDistinguishesVariants) {
  EXPECT_TRUE(SyncClassifier::isBlockingMpiName("MPI_Wait"));
  EXPECT_TRUE(SyncClassifier::isBlockingMpiName("MPI_Waitall"));
  EXPECT_TRUE(SyncClassifier::isBlockingMpiName("MPI_Allreduce"));
  EXPECT_TRUE(SyncClassifier::isBlockingMpiName("MPI_Recv"));
  EXPECT_TRUE(SyncClassifier::isBlockingMpiName("MPI_Send"));
  EXPECT_FALSE(SyncClassifier::isBlockingMpiName("MPI_Isend"));
  EXPECT_FALSE(SyncClassifier::isBlockingMpiName("MPI_Irecv"));
  EXPECT_FALSE(SyncClassifier::isBlockingMpiName("MPI_Comm_rank"));
}

TEST(SyncClassifier, CustomPredicate) {
  const SyncClassifier c(
      [](const trace::FunctionDef& def) { return def.group == "SYNC"; });
  EXPECT_TRUE(c.isSync({"anything", "SYNC", trace::Paradigm::Compute}));
  EXPECT_FALSE(c.isSync({"MPI_Barrier", "MPI", trace::Paradigm::MPI}));
}

TEST(SyncClassifier, NoneNeverMatches) {
  const SyncClassifier c = SyncClassifier::none();
  EXPECT_FALSE(c.isSync({"MPI_Barrier", "MPI", trace::Paradigm::MPI}));
}

TEST(SyncClassifier, MaskMatchesPerFunctionDecision) {
  const trace::Trace tr = apps::buildFigure3Trace();
  const SyncClassifier c;
  const auto mask = c.mask(tr);
  ASSERT_EQ(mask.size(), tr.functions.size());
  EXPECT_TRUE(mask[*tr.functions.find("MPI")]);
  EXPECT_FALSE(mask[*tr.functions.find("calc")]);
}

// --- correlation -----------------------------------------------------------------

trace::Trace traceWithCounter(double scale) {
  trace::TraceBuilder b(4);
  const auto f = b.defineFunction("step");
  const auto m = b.defineMetric("ctr");
  for (trace::ProcessId p = 0; p < 4; ++p) {
    trace::Timestamp t = 0;
    double cumulative = 0.0;
    for (int i = 0; i < 10; ++i) {
      const trace::Timestamp w = 100 + 50 * p;
      b.enter(p, t, f);
      cumulative += scale * static_cast<double>(w);
      b.metric(p, t + w / 2, m, cumulative);
      b.leave(p, t + w, f);
      t += w + 10;
    }
  }
  return b.finish();
}

TEST(Correlate, PerfectlyCorrelatedCounter) {
  const trace::Trace tr = traceWithCounter(3.0);
  const auto f = *tr.functions.find("step");
  const auto m = *tr.metrics.find("ctr");
  const SosResult sos = analyzeSos(tr, f);
  const MetricCorrelation c = correlateMetric(sos, m);
  EXPECT_NEAR(c.processPearson, 1.0, 1e-9);
  EXPECT_NEAR(c.processSpearman, 1.0, 1e-9);
  EXPECT_NEAR(c.segmentPearson, 1.0, 1e-9);
  EXPECT_TRUE(c.topProcessMatches);
  EXPECT_EQ(c.segmentPairs, 40u);
}

TEST(Correlate, AntiCorrelatedCounter) {
  const trace::Trace tr = traceWithCounter(-2.0);
  const auto f = *tr.functions.find("step");
  const auto m = *tr.metrics.find("ctr");
  const SosResult sos = analyzeSos(tr, f);
  const MetricCorrelation c = correlateMetric(sos, m);
  EXPECT_NEAR(c.processPearson, -1.0, 1e-9);
  EXPECT_FALSE(c.topProcessMatches);
}

TEST(Correlate, AllMetricsSkipsUnsampled) {
  trace::TraceBuilder b(2);
  const auto f = b.defineFunction("step");
  b.defineMetric("never_sampled");
  b.enter(0, 0, f);
  b.leave(0, 10, f);
  b.enter(1, 0, f);
  b.leave(1, 10, f);
  const trace::Trace tr = b.finish();
  const SosResult sos = analyzeSos(tr, f);
  EXPECT_TRUE(correlateAllMetrics(sos).empty());
}

TEST(Correlate, FormatMentionsMetricName) {
  const trace::Trace tr = traceWithCounter(1.0);
  const auto f = *tr.functions.find("step");
  const auto m = *tr.metrics.find("ctr");
  const SosResult sos = analyzeSos(tr, f);
  const std::string text = formatCorrelation(tr, correlateMetric(sos, m));
  EXPECT_NE(text.find("ctr"), std::string::npos);
  EXPECT_NE(text.find("Pearson"), std::string::npos);
}

// --- baselines -------------------------------------------------------------------

TEST(Baselines, SegmentDurationCannotLocalizeBarrierHiddenImbalance) {
  // Figure 3 situation: durations equal across ranks, SOS differs.
  const trace::Trace tr = apps::buildFigure3Trace();
  const auto fA = *tr.functions.find("a");
  const auto duration = detectBySegmentDuration(tr, fA);
  const auto sosOutcome = detectBySos(tr, fA);
  // Total SOS: P0 = 8, P1 = 8, P2 = 7 -> baselines tie on durations
  // (14 everywhere), so the duration method has zero separation.
  EXPECT_EQ(duration.scores[0], duration.scores[1]);
  EXPECT_EQ(duration.scores[1], duration.scores[2]);
  EXPECT_NEAR(duration.topSeparation(), 0.0, 1e-12);
  EXPECT_EQ(sosOutcome.method, "sos-time");
  EXPECT_GT(sosOutcome.scores[0], sosOutcome.scores[2]);
}

TEST(Baselines, ProfileDetectorRanksByExclusiveComputeTime) {
  trace::TraceBuilder b(3);
  const auto f = b.defineFunction("work");
  const auto mpi = b.defineFunction("MPI_Barrier", "MPI",
                                    trace::Paradigm::MPI);
  for (trace::ProcessId p = 0; p < 3; ++p) {
    const trace::Timestamp w = 100 + 100 * p;
    b.enter(p, 0, f);
    b.leave(p, w, f);
    b.enter(p, w, mpi);
    b.leave(p, 300, mpi);  // equalizing barrier
  }
  const trace::Trace tr = b.finish();
  const auto outcome = detectByProfile(tr);
  EXPECT_EQ(outcome.method, "profile-only");
  EXPECT_EQ(outcome.rankedProcesses[0], 2u);
  EXPECT_EQ(outcome.rankedProcesses[2], 0u);
  EXPECT_FALSE(outcome.suspiciousIteration.has_value());
}

TEST(Baselines, RankOfAbsentProcess) {
  const trace::Trace tr = apps::buildFigure3Trace();
  const auto fA = *tr.functions.find("a");
  const auto outcome = detectBySos(tr, fA);
  EXPECT_EQ(outcome.rankOf(99), outcome.rankedProcesses.size());
}

}  // namespace
}  // namespace perfvar::analysis
