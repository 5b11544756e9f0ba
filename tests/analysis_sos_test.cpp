#include <cmath>
#include <gtest/gtest.h>

#include "analysis/segments.hpp"
#include "analysis/sos.hpp"
#include "apps/paper_examples.hpp"
#include "trace/builder.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfvar::analysis {
namespace {

// --- segmentation ------------------------------------------------------------

TEST(Segments, Figure2SegmentsPerProcess) {
  const trace::Trace tr = apps::buildFigure2Trace();
  const auto fA = *tr.functions.find("a");
  const auto segments = extractSegments(tr, fA);
  ASSERT_EQ(segments.size(), 3u);
  for (const auto& per : segments) {
    ASSERT_EQ(per.size(), 3u);
    EXPECT_EQ(per[0].enter, 2u);
    EXPECT_EQ(per[0].leave, 6u);
    EXPECT_EQ(per[0].inclusive(), 4u);
    EXPECT_EQ(per[1].index, 1u);
  }
  const auto info = describeSegmentation(segments);
  EXPECT_EQ(info.totalSegments, 9u);
  EXPECT_TRUE(info.uniform);
  EXPECT_EQ(info.minPerProcess, 3u);
}

TEST(Segments, RecursiveInvocationsFormOneSegment) {
  trace::TraceBuilder b(1);
  const auto f = b.defineFunction("rec");
  b.enter(0, 0, f);
  b.enter(0, 10, f);
  b.leave(0, 20, f);
  b.leave(0, 30, f);
  b.enter(0, 40, f);
  b.leave(0, 50, f);
  const trace::Trace tr = b.finish();
  const auto segments = extractSegments(tr, f);
  ASSERT_EQ(segments[0].size(), 2u);  // outermost only
  EXPECT_EQ(segments[0][0].inclusive(), 30u);
  EXPECT_EQ(segments[0][1].inclusive(), 10u);
}

TEST(Segments, ProcessWithoutFunctionGetsNoSegments) {
  trace::TraceBuilder b(2);
  const auto f = b.defineFunction("f");
  const auto g = b.defineFunction("g");
  b.enter(0, 0, f);
  b.leave(0, 5, f);
  b.enter(1, 0, g);
  b.leave(1, 5, g);
  const trace::Trace tr = b.finish();
  const auto segments = extractSegments(tr, f);
  EXPECT_EQ(segments[0].size(), 1u);
  EXPECT_TRUE(segments[1].empty());
}

TEST(Segments, UndefinedFunctionRejected) {
  const trace::Trace tr = apps::buildFigure2Trace();
  EXPECT_THROW(extractSegments(tr, 1000), Error);
}

// --- Figure 3: SOS-times ------------------------------------------------------

TEST(Sos, Figure3SegmentDurationsAreEqualAcrossProcesses) {
  const trace::Trace tr = apps::buildFigure3Trace();
  const auto fA = *tr.functions.find("a");
  const SosResult durations = analyzeSegmentDurations(tr, fA);
  // Durations 6, 3, 5 on every process: the MPI wait hides the imbalance.
  for (trace::ProcessId p = 0; p < 3; ++p) {
    const auto& segs = durations.process(p);
    ASSERT_EQ(segs.size(), 3u);
    EXPECT_EQ(segs[0].segment.inclusive(), 6u);
    EXPECT_EQ(segs[1].segment.inclusive(), 3u);
    EXPECT_EQ(segs[2].segment.inclusive(), 5u);
    for (const auto& s : segs) {
      EXPECT_EQ(s.syncTime, 0u);  // duration baseline subtracts nothing
      EXPECT_EQ(s.sosTime, s.segment.inclusive());
    }
  }
}

TEST(Sos, Figure3SosTimesExposeTheImbalance) {
  const trace::Trace tr = apps::buildFigure3Trace();
  const auto fA = *tr.functions.find("a");
  const SosResult sos = analyzeSos(tr, fA);
  const auto& calc = apps::figure3CalcTimes();
  for (trace::ProcessId p = 0; p < 3; ++p) {
    const auto& segs = sos.process(p);
    ASSERT_EQ(segs.size(), 3u);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(static_cast<double>(segs[i].sosTime), calc[i][p])
          << "iteration " << i << " process " << p;
    }
  }
  // The prose's headline numbers: iteration 0 SOS 5 (P0) vs 1 (P2).
  EXPECT_EQ(sos.process(0)[0].sosTime, 5u);
  EXPECT_EQ(sos.process(2)[0].sosTime, 1u);
}

TEST(Sos, Figure3SyncTimeComplementsSos) {
  const trace::Trace tr = apps::buildFigure3Trace();
  const auto fA = *tr.functions.find("a");
  const SosResult sos = analyzeSos(tr, fA);
  for (trace::ProcessId p = 0; p < 3; ++p) {
    for (const auto& seg : sos.process(p)) {
      EXPECT_EQ(seg.syncTime + seg.sosTime, seg.segment.inclusive());
      EXPECT_EQ(seg.paradigmTime[static_cast<std::size_t>(
                    trace::Paradigm::MPI)],
                seg.syncTime);
    }
  }
}

TEST(Sos, MatrixAndSeriesAccessors) {
  const trace::Trace tr = apps::buildFigure3Trace();
  const auto fA = *tr.functions.find("a");
  const SosResult sos = analyzeSos(tr, fA);
  EXPECT_EQ(sos.maxSegmentsPerProcess(), 3u);
  const auto matrix = sos.sosMatrixSeconds();
  ASSERT_EQ(matrix.size(), 3u);
  EXPECT_DOUBLE_EQ(matrix[0][0], 5.0);  // resolution 1 -> seconds == ticks
  EXPECT_DOUBLE_EQ(sos.sosSeconds(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(sos.durationSeconds(1, 1), 3.0);

  const auto meanDur = sos.meanDurationPerIteration();
  ASSERT_EQ(meanDur.size(), 3u);
  EXPECT_DOUBLE_EQ(meanDur[0], 6.0);
  EXPECT_DOUBLE_EQ(meanDur[1], 3.0);

  const auto syncFrac = sos.syncFractionPerIteration();
  EXPECT_DOUBLE_EQ(syncFrac[0], 0.5);       // 9 of 18 ticks waiting
  EXPECT_NEAR(syncFrac[1], 1.0 / 3.0, 1e-12);

  const auto totals = sos.totalSosPerProcess();
  EXPECT_DOUBLE_EQ(totals[0], 8.0);  // 5+2+1
  EXPECT_DOUBLE_EQ(totals[2], 7.0);  // 1+2+4

  const auto flat = sos.allSosSeconds();
  EXPECT_EQ(flat.size(), 9u);
}

TEST(Sos, RaggedProcessesYieldNaNCells) {
  trace::TraceBuilder b(2);
  const auto f = b.defineFunction("f");
  b.enter(0, 0, f);
  b.leave(0, 10, f);
  b.enter(0, 10, f);
  b.leave(0, 20, f);
  b.enter(1, 0, f);
  b.leave(1, 10, f);
  const trace::Trace tr = b.finish();
  const SosResult sos = analyzeSos(tr, f);
  EXPECT_EQ(sos.maxSegmentsPerProcess(), 2u);
  const auto matrix = sos.sosMatrixSeconds();
  EXPECT_FALSE(std::isnan(matrix[0][1]));
  EXPECT_TRUE(std::isnan(matrix[1][1]));
}

TEST(Sos, BlockingOnlyPolicyKeepsNonblockingCost) {
  trace::TraceBuilder b(1);
  const auto f = b.defineFunction("step");
  const auto isend =
      b.defineFunction("MPI_Isend", "MPI", trace::Paradigm::MPI);
  const auto wait = b.defineFunction("MPI_Wait", "MPI", trace::Paradigm::MPI);
  b.enter(0, 0, f);
  b.enter(0, 10, isend);
  b.leave(0, 12, isend);
  b.enter(0, 20, wait);
  b.leave(0, 50, wait);
  b.leave(0, 100, f);
  const trace::Trace tr = b.finish();

  const SosResult paradigm = analyzeSos(tr, f, SyncClassifier{});
  EXPECT_EQ(paradigm.process(0)[0].syncTime, 32u);  // Isend + Wait

  const SosResult blocking =
      analyzeSos(tr, f, SyncClassifier(SyncPolicy::BlockingOnly));
  EXPECT_EQ(blocking.process(0)[0].syncTime, 30u);  // Wait only
}

TEST(Sos, NestedSyncCallsCountOnce) {
  trace::TraceBuilder b(1);
  const auto f = b.defineFunction("step");
  const auto outer =
      b.defineFunction("MPI_Allreduce", "MPI", trace::Paradigm::MPI);
  const auto inner =
      b.defineFunction("MPI_Send", "MPI", trace::Paradigm::MPI);
  b.enter(0, 0, f);
  b.enter(0, 10, outer);
  b.enter(0, 12, inner);  // implementation-internal send
  b.leave(0, 18, inner);
  b.leave(0, 40, outer);
  b.leave(0, 50, f);
  const trace::Trace tr = b.finish();
  const SosResult sos = analyzeSos(tr, f);
  // Only the maximal MPI frame [10,40] is subtracted, not 30+6.
  EXPECT_EQ(sos.process(0)[0].syncTime, 30u);
  EXPECT_EQ(sos.process(0)[0].sosTime, 20u);
}

TEST(Sos, MetricDeltasAttributeToSegments) {
  trace::TraceBuilder b(1);
  const auto f = b.defineFunction("step");
  const auto m = b.defineMetric("PAPI_TOT_CYC", "cycles");
  // Cumulative samples: 100 within segment 0; 250 within segment 1.
  b.enter(0, 0, f);
  b.metric(0, 5, m, 100.0);
  b.leave(0, 10, f);
  b.enter(0, 10, f);
  b.metric(0, 15, m, 250.0);
  b.leave(0, 20, f);
  const trace::Trace tr = b.finish();
  const SosResult sos = analyzeSos(tr, f);
  EXPECT_DOUBLE_EQ(sos.process(0)[0].metricDelta[m], 100.0);
  EXPECT_DOUBLE_EQ(sos.process(0)[1].metricDelta[m], 150.0);
  const auto totals = sos.totalMetricPerProcess(m);
  EXPECT_DOUBLE_EQ(totals[0], 250.0);
}

TEST(Sos, AbsoluteMetricsKeepLastValue) {
  trace::TraceBuilder b(1);
  const auto f = b.defineFunction("step");
  const auto m = b.defineMetric("mem", "bytes", trace::MetricMode::Absolute);
  b.enter(0, 0, f);
  b.metric(0, 2, m, 10.0);
  b.metric(0, 8, m, 30.0);
  b.leave(0, 10, f);
  const trace::Trace tr = b.finish();
  const SosResult sos = analyzeSos(tr, f);
  EXPECT_DOUBLE_EQ(sos.process(0)[0].metricDelta[m], 30.0);
}

// Property: SOS <= duration, sync >= 0, and the NONE classifier gives
// exactly the durations - over randomized traces.
class SosInvariantSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SosInvariantSweep, InvariantsHoldOnRandomTraces) {
  Rng rng(GetParam());
  const auto nProcs = static_cast<std::size_t>(rng.uniformInt(1, 4));
  trace::TraceBuilder b(nProcs);
  const auto fStep = b.defineFunction("step");
  const auto fWork = b.defineFunction("work");
  const auto fMpi =
      b.defineFunction("MPI_Allreduce", "MPI", trace::Paradigm::MPI);
  for (trace::ProcessId p = 0; p < nProcs; ++p) {
    trace::Timestamp t = 0;
    const auto iters = rng.uniformInt(1, 20);
    for (std::int64_t i = 0; i < iters; ++i) {
      b.enter(p, t, fStep);
      const auto work = static_cast<trace::Timestamp>(rng.uniformInt(0, 50));
      b.enter(p, t, fWork);
      b.leave(p, t + work, fWork);
      const auto wait = static_cast<trace::Timestamp>(rng.uniformInt(0, 30));
      b.enter(p, t + work, fMpi);
      b.leave(p, t + work + wait, fMpi);
      const auto tail = static_cast<trace::Timestamp>(rng.uniformInt(0, 5));
      b.leave(p, t + work + wait + tail, fStep);
      t += work + wait + tail + static_cast<trace::Timestamp>(
                                    rng.uniformInt(0, 10));
    }
  }
  const trace::Trace tr = b.finish();
  const SosResult sos = analyzeSos(tr, fStep);
  const SosResult dur = analyzeSegmentDurations(tr, fStep);
  for (trace::ProcessId p = 0; p < nProcs; ++p) {
    ASSERT_EQ(sos.process(p).size(), dur.process(p).size());
    for (std::size_t i = 0; i < sos.process(p).size(); ++i) {
      const auto& s = sos.process(p)[i];
      EXPECT_LE(s.sosTime, s.segment.inclusive());
      EXPECT_EQ(s.sosTime + s.syncTime, s.segment.inclusive());
      EXPECT_EQ(dur.process(p)[i].sosTime,
                dur.process(p)[i].segment.inclusive());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SosInvariantSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace perfvar::analysis
