#include <gtest/gtest.h>

#include "analysis/streaming.hpp"
#include "apps/cosmo_specs.hpp"
#include "apps/paper_examples.hpp"
#include "sim/simulator.hpp"
#include "trace/builder.hpp"
#include "trace/filter.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfvar::analysis {
namespace {

/// Collect all segments the streaming analyzer emits, grouped by process.
std::vector<std::vector<SegmentAnalysis>> streamAll(
    const trace::Trace& tr, trace::FunctionId f,
    const StreamingOptions& opts = {}) {
  StreamingSos analyzer(tr, f, opts);
  std::vector<std::vector<SegmentAnalysis>> out(tr.processCount());
  analyzer.setSegmentCallback([&](const SegmentAnalysis& seg) {
    out[seg.segment.process].push_back(seg);
  });
  StreamingSos::replay(tr, analyzer);
  return out;
}

void expectEqualResults(const std::vector<std::vector<SegmentAnalysis>>& a,
                        const SosResult& b) {
  ASSERT_EQ(a.size(), b.processCount());
  for (std::size_t p = 0; p < a.size(); ++p) {
    const auto& batch = b.process(static_cast<trace::ProcessId>(p));
    ASSERT_EQ(a[p].size(), batch.size()) << "process " << p;
    for (std::size_t i = 0; i < a[p].size(); ++i) {
      EXPECT_EQ(a[p][i].segment.enter, batch[i].segment.enter);
      EXPECT_EQ(a[p][i].segment.leave, batch[i].segment.leave);
      EXPECT_EQ(a[p][i].sosTime, batch[i].sosTime);
      EXPECT_EQ(a[p][i].syncTime, batch[i].syncTime);
      EXPECT_EQ(a[p][i].metricDelta, batch[i].metricDelta);
      EXPECT_EQ(a[p][i].paradigmTime, batch[i].paradigmTime);
    }
  }
}

TEST(Streaming, MatchesBatchAnalysisOnFigure3) {
  const trace::Trace tr = apps::buildFigure3Trace();
  const auto fA = *tr.functions.find("a");
  expectEqualResults(streamAll(tr, fA), analyzeSos(tr, fA));
}

TEST(Streaming, MatchesBatchAnalysisOnSimulatedRun) {
  apps::CosmoSpecsConfig cfg;
  cfg.gridX = 4;
  cfg.gridY = 4;
  cfg.timesteps = 15;
  const auto scenario = apps::buildCosmoSpecs(cfg);
  const trace::Trace tr = sim::simulate(scenario.program, scenario.simOptions);
  expectEqualResults(streamAll(tr, scenario.iterationFunction),
                     analyzeSos(tr, scenario.iterationFunction));
}

TEST(Streaming, AlertsFireOnAnInjectedOutlierWhileRunning) {
  trace::TraceBuilder b(2);
  const auto fStep = b.defineFunction("step");
  for (std::size_t i = 0; i < 100; ++i) {
    for (trace::ProcessId p = 0; p < 2; ++p) {
      const trace::Timestamp t0 = static_cast<trace::Timestamp>(i) * 1000;
      // One 10x segment on process 1, iteration 70; mild jitter elsewhere.
      const trace::Timestamp w =
          (p == 1 && i == 70) ? 900 : 90 + (p * 5 + i * 3) % 7;
      b.enter(p, t0, fStep);
      b.leave(p, t0 + w, fStep);
    }
  }
  const trace::Trace tr = b.finish();

  StreamingOptions opts;
  opts.alertThreshold = 6.0;
  StreamingSos analyzer(tr, *tr.functions.find("step"), opts);
  std::vector<StreamingAlert> alerts;
  analyzer.setAlertCallback(
      [&](const StreamingAlert& alert) { alerts.push_back(alert); });
  StreamingSos::replay(tr, analyzer);

  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].segment.segment.process, 1u);
  EXPECT_EQ(alerts[0].segment.segment.index, 70u);
  EXPECT_GT(alerts[0].robustZ, 6.0);
  EXPECT_EQ(analyzer.segmentsCompleted(), 200u);
}

TEST(Streaming, NoAlertsDuringWarmup) {
  trace::TraceBuilder b(1);
  const auto fStep = b.defineFunction("step");
  // The very first segment is huge - but falls inside the warm-up window.
  b.enter(0, 0, fStep);
  b.leave(0, 100000, fStep);
  for (std::size_t i = 1; i < 10; ++i) {
    b.enter(0, 100000 + i * 100, fStep);
    b.leave(0, 100000 + i * 100 + 50, fStep);
  }
  const trace::Trace tr = b.finish();
  StreamingOptions opts;
  opts.warmupSegments = 32;
  StreamingSos analyzer(tr, fStep, opts);
  bool alerted = false;
  analyzer.setAlertCallback([&](const StreamingAlert&) { alerted = true; });
  StreamingSos::replay(tr, analyzer);
  EXPECT_FALSE(alerted);
}

TEST(Streaming, RejectsMalformedStreams) {
  const trace::Trace defs = apps::buildFigure1Trace();
  StreamingSos analyzer(defs, 0);
  EXPECT_THROW(analyzer.onEvent(0, trace::Event::leave(5, 0)), Error);
  StreamingSos unfinished(defs, 0);
  unfinished.onEvent(0, trace::Event::enter(0, 0));
  EXPECT_THROW(unfinished.finish(), Error);
}

TEST(Streaming, RejectedChunkChangesNothing) {
  const trace::Trace tr = apps::buildFigure3Trace();
  const auto fA = *tr.functions.find("a");
  const std::vector<trace::Trace> chunks = trace::splitByTime(tr, 3);
  StreamingSos analyzer(tr, fA);
  std::vector<std::vector<SegmentAnalysis>> out(tr.processCount());
  analyzer.setSegmentCallback([&](const SegmentAnalysis& seg) {
    out[seg.segment.process].push_back(seg);
  });
  analyzer.feed(chunks[0]);
  const std::size_t done = analyzer.segmentsCompleted();

  // Each bad chunk is valid on rank 0 and wrong only on the last rank, so
  // an analyzer that fed as it checked would already have moved.
  const trace::ProcessId last = tr.processCount() - 1;
  const trace::Timestamp t = chunks[0].endTime();
  for (const auto& [bad, what] :
       {std::pair{trace::Event::enter(t, 4000), "undefined function ref 4000"},
        std::pair{trace::Event::metric(t, 77, 1.0), "undefined metric ref 77"},
        std::pair{trace::Event::leave(t, 4000), "unbalanced leave"}}) {
    trace::Trace chunk = chunks[1];
    chunk.processes[last].events.insert(chunk.processes[last].events.begin(),
                                        bad);
    try {
      analyzer.feed(chunk);
      ADD_FAILURE() << "expected a rejection: " << what;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::MalformedEvent) << e.what();
      EXPECT_EQ(e.rank(), static_cast<std::int64_t>(last));
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(analyzer.segmentsCompleted(), done);
  }
  analyzer.feed(chunks[1]);
  analyzer.feed(chunks[2]);
  analyzer.finish();
  expectEqualResults(out, analyzeSos(tr, fA));
}

// Property: streaming == batch on random traces (different interleavings
// cannot change per-process results).
class StreamingEquivalenceSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingEquivalenceSweep, StreamEqualsBatch) {
  Rng rng(GetParam());
  const auto nProcs = static_cast<std::size_t>(rng.uniformInt(1, 5));
  trace::TraceBuilder b(nProcs);
  const auto fStep = b.defineFunction("step");
  const auto fWork = b.defineFunction("work");
  const auto fMpi =
      b.defineFunction("MPI_Allreduce", "MPI", trace::Paradigm::MPI);
  const auto m = b.defineMetric("ctr");
  for (trace::ProcessId p = 0; p < nProcs; ++p) {
    trace::Timestamp t = static_cast<trace::Timestamp>(rng.uniformInt(0, 50));
    double cumulative = 0.0;
    const auto iters = rng.uniformInt(1, 15);
    for (std::int64_t i = 0; i < iters; ++i) {
      b.enter(p, t, fStep);
      const auto w = static_cast<trace::Timestamp>(rng.uniformInt(1, 40));
      b.enter(p, t, fWork);
      cumulative += rng.uniform(0.0, 100.0);
      b.metric(p, t + w / 2, m, cumulative);
      b.leave(p, t + w, fWork);
      const auto s = static_cast<trace::Timestamp>(rng.uniformInt(0, 20));
      b.enter(p, t + w, fMpi);
      b.leave(p, t + w + s, fMpi);
      b.leave(p, t + w + s, fStep);
      t += w + s + static_cast<trace::Timestamp>(rng.uniformInt(0, 9));
    }
  }
  const trace::Trace tr = b.finish();
  const SosResult batch = analyzeSos(tr, fStep);
  expectEqualResults(streamAll(tr, fStep), batch);

  // The same events fed as k time-ordered chunks: the fold state (open
  // segment, nesting, metric baselines) carries across feed() calls.
  const auto k = static_cast<std::size_t>(rng.uniformInt(2, 12));
  StreamingSos chunked(tr, fStep);
  std::vector<std::vector<SegmentAnalysis>> out(tr.processCount());
  chunked.setSegmentCallback([&](const SegmentAnalysis& seg) {
    out[seg.segment.process].push_back(seg);
  });
  for (const trace::Trace& chunk : trace::splitByTime(tr, k)) {
    chunked.feed(chunk);
  }
  chunked.finish();
  expectEqualResults(out, batch);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingEquivalenceSweep,
                         ::testing::Values(7, 14, 21, 28, 35, 42));

}  // namespace
}  // namespace perfvar::analysis
