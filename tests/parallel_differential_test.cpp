/// Differential harness for the parallel analysis engine: for a matrix of
/// trace shapes (uniform, imbalanced, interrupted-rank, zero-segment,
/// single-rank, simulated) and thread counts {1, 2, 4, hardware},
/// analyzeTrace() with PipelineOptions::threads != 1 must produce output
/// that is field-for-field
/// identical to the serial analyzeTrace() — same DominantSelection, same
/// SOS vectors (including paradigm breakdown and metric deltas), same
/// VariationReport. Exact double comparisons throughout: the guarantee is
/// bit-identical, not approximately equal.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "analysis/pipeline.hpp"
#include "apps/scale_synthetic.hpp"
#include "sim/program.hpp"
#include "sim/simulator.hpp"
#include "trace/builder.hpp"
#include "util/thread_pool.hpp"

namespace perfvar {
namespace {

enum class Shape {
  Uniform,      ///< every rank does identical work
  Imbalanced,   ///< one rank persistently overloaded
  Interrupted,  ///< one rank has a single stretched iteration
};

/// Hand-built iterative trace: `step` wraps `calc` + `MPI_Allreduce` per
/// iteration, plus an accumulated and an absolute metric. Tick math only,
/// so all analysis inputs are exact.
trace::Trace buildSynthetic(std::size_t ranks, std::size_t iters,
                            Shape shape) {
  trace::TraceBuilder b(ranks, 1'000'000);
  const auto fStep = b.defineFunction("step", "APP", trace::Paradigm::Compute);
  const auto fCalc = b.defineFunction("calc", "APP", trace::Paradigm::Compute);
  const auto fMpi =
      b.defineFunction("MPI_Allreduce", "MPI", trace::Paradigm::MPI);
  const auto mFlop = b.defineMetric("FLOP", "", trace::MetricMode::Accumulated);
  const auto mUtil =
      b.defineMetric("UTILIZATION", "%", trace::MetricMode::Absolute);

  for (trace::ProcessId r = 0; r < ranks; ++r) {
    trace::Timestamp t = 0;
    double flop = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      trace::Timestamp calcTicks = 100 + 7 * ((r + i) % 5);
      if (shape == Shape::Imbalanced && r == ranks / 2) {
        calcTicks += 150;
      }
      if (shape == Shape::Interrupted && r == ranks - 1 && i == iters / 2) {
        calcTicks += 900;
      }
      const trace::Timestamp mpiTicks = 40 + 3 * (i % 4);
      b.enter(r, t, fStep);
      b.enter(r, t, fCalc);
      flop += static_cast<double>(calcTicks) * 2.0;
      b.metric(r, t + calcTicks / 2, mFlop, flop);
      b.metric(r, t + calcTicks / 2, mUtil,
               90.0 - static_cast<double>((r + i) % 7));
      b.leave(r, t + calcTicks, fCalc);
      b.enter(r, t + calcTicks, fMpi);
      b.leave(r, t + calcTicks + mpiTicks, fMpi);
      b.leave(r, t + calcTicks + mpiTicks, fStep);
      t += calcTicks + mpiTicks + 10;  // small gap between iterations
    }
  }
  return b.finish();
}

/// One rank never invokes the step function: its timeline is a single long
/// `idle` invocation (1 invocation < 2p, so it is rejected from candidacy
/// like `main` in the paper's Figure 2, and its segment row stays empty).
trace::Trace buildZeroSegmentRank() {
  const std::size_t ranks = 4;
  const std::size_t iters = 10;
  trace::TraceBuilder b(ranks, 1'000'000);
  const auto fStep = b.defineFunction("step", "APP", trace::Paradigm::Compute);
  const auto fMpi = b.defineFunction("MPI_Barrier", "MPI", trace::Paradigm::MPI);
  const auto fIdle = b.defineFunction("idle", "APP", trace::Paradigm::Compute);
  for (trace::ProcessId r = 0; r + 1 < ranks; ++r) {
    trace::Timestamp t = 0;
    for (std::size_t i = 0; i < iters; ++i) {
      b.enter(r, t, fStep);
      b.enter(r, t + 80 + 5 * (i % 3), fMpi);
      b.leave(r, t + 100 + 5 * (i % 3), fMpi);
      b.leave(r, t + 110, fStep);
      t += 120;
    }
  }
  b.enter(ranks - 1, 0, fIdle);
  b.leave(ranks - 1, 120 * iters, fIdle);
  return b.finish();
}

trace::Trace buildSingleRank() {
  trace::TraceBuilder b(1, 1'000'000);
  const auto fStep = b.defineFunction("step", "APP", trace::Paradigm::Compute);
  const auto fMpi = b.defineFunction("MPI_Wait", "MPI", trace::Paradigm::MPI);
  trace::Timestamp t = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    b.enter(0, t, fStep);
    b.enter(0, t + 50 + 20 * (i % 2), fMpi);
    b.leave(0, t + 60 + 20 * (i % 2), fMpi);
    b.leave(0, t + 100, fStep);
    t += 100;
  }
  return b.finish();
}

/// Simulated run: 12-rank ring exchange with one overloaded rank and OS
/// noise, so hotspots, culprits and metric paths are all populated by a
/// realistic (simulator-timed) trace, not just hand-placed ticks.
trace::Trace buildSimulated() {
  const std::uint32_t ranks = 12;
  const std::size_t iters = 15;
  sim::ProgramBuilder b(ranks);
  const auto fStep = b.function("step", "APP");
  const auto fWork = b.function("work", "APP");
  for (std::size_t i = 0; i < iters; ++i) {
    for (std::uint32_t r = 0; r < ranks; ++r) {
      b.enter(r, fStep);
      double work = 1e-4 * static_cast<double>(1 + (r * 5 + i) % 7);
      if (r == 3) {
        work *= 2.5;  // persistent overload
      }
      sim::ComputeAttrs attrs;
      if (r == 7 && i == 9) {
        attrs.osDelay = 4e-3;  // one stretched invocation
      }
      b.compute(r, fWork, work, attrs);
      b.send(r, (r + 1) % ranks, static_cast<std::uint32_t>(i), 256);
      b.recv(r, (r + ranks - 1) % ranks, static_cast<std::uint32_t>(i));
      b.allreduce(r, 64);
      b.leave(r, fStep);
    }
  }
  sim::SimOptions opts;
  opts.noise.sigma = 0.05;
  opts.noise.seed = 424242;
  return sim::simulate(b.finish(), opts);
}

struct Case {
  const char* name;
  trace::Trace tr;
};

std::vector<Case> buildMatrix() {
  std::vector<Case> cases;
  cases.push_back({"uniform", buildSynthetic(8, 12, Shape::Uniform)});
  cases.push_back({"imbalanced", buildSynthetic(8, 12, Shape::Imbalanced)});
  cases.push_back({"interrupted", buildSynthetic(6, 14, Shape::Interrupted)});
  cases.push_back({"zero_segment_rank", buildZeroSegmentRank()});
  cases.push_back({"single_rank", buildSingleRank()});
  cases.push_back({"simulated", buildSimulated()});
  return cases;
}

std::vector<std::size_t> threadMatrix() {
  return {1, 2, 4, util::ThreadPool::resolveThreadCount(0)};
}

// ---- field-for-field comparison helpers ----------------------------------

void expectSelectionEqual(const analysis::DominantSelection& a,
                          const analysis::DominantSelection& b) {
  const auto eq = [](const analysis::DominantCandidate& x,
                     const analysis::DominantCandidate& y) {
    EXPECT_EQ(x.function, y.function);
    EXPECT_EQ(x.invocations, y.invocations);
    EXPECT_EQ(x.aggregatedInclusive, y.aggregatedInclusive);
  };
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    eq(a.candidates[i], b.candidates[i]);
  }
  ASSERT_EQ(a.rejectedTopLevel.size(), b.rejectedTopLevel.size());
  for (std::size_t i = 0; i < a.rejectedTopLevel.size(); ++i) {
    eq(a.rejectedTopLevel[i], b.rejectedTopLevel[i]);
  }
}

void expectSosEqual(const analysis::SosResult& a,
                    const analysis::SosResult& b) {
  EXPECT_EQ(a.segmentFunction(), b.segmentFunction());
  ASSERT_EQ(a.processCount(), b.processCount());
  for (std::size_t p = 0; p < a.processCount(); ++p) {
    const auto& pa = a.process(static_cast<trace::ProcessId>(p));
    const auto& pb = b.process(static_cast<trace::ProcessId>(p));
    ASSERT_EQ(pa.size(), pb.size()) << "process " << p;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      const auto& sa = pa[i];
      const auto& sb = pb[i];
      EXPECT_EQ(sa.segment.process, sb.segment.process);
      EXPECT_EQ(sa.segment.index, sb.segment.index);
      EXPECT_EQ(sa.segment.enter, sb.segment.enter);
      EXPECT_EQ(sa.segment.leave, sb.segment.leave);
      EXPECT_EQ(sa.syncTime, sb.syncTime);
      EXPECT_EQ(sa.sosTime, sb.sosTime);
      EXPECT_EQ(sa.paradigmTime, sb.paradigmTime);
      EXPECT_EQ(sa.metricDelta, sb.metricDelta);  // exact doubles
    }
  }
}

void expectVariationEqual(const analysis::VariationReport& a,
                          const analysis::VariationReport& b) {
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    const auto& ia = a.iterations[i];
    const auto& ib = b.iterations[i];
    EXPECT_EQ(ia.iteration, ib.iteration);
    EXPECT_EQ(ia.processCount, ib.processCount);
    EXPECT_EQ(ia.minSos, ib.minSos);
    EXPECT_EQ(ia.maxSos, ib.maxSos);
    EXPECT_EQ(ia.meanSos, ib.meanSos);
    EXPECT_EQ(ia.stddevSos, ib.stddevSos);
    EXPECT_EQ(ia.meanDuration, ib.meanDuration);
    EXPECT_EQ(ia.imbalance, ib.imbalance);
    EXPECT_EQ(ia.slowestProcess, ib.slowestProcess);
  }
  ASSERT_EQ(a.processes.size(), b.processes.size());
  for (std::size_t p = 0; p < a.processes.size(); ++p) {
    const auto& pa = a.processes[p];
    const auto& pb = b.processes[p];
    EXPECT_EQ(pa.process, pb.process);
    EXPECT_EQ(pa.segments, pb.segments);
    EXPECT_EQ(pa.totalSos, pb.totalSos);
    EXPECT_EQ(pa.meanSos, pb.meanSos);
    EXPECT_EQ(pa.maxSos, pb.maxSos);
    EXPECT_EQ(pa.totalZ, pb.totalZ);
  }
  EXPECT_EQ(a.processesBySos, b.processesBySos);
  EXPECT_EQ(a.culpritProcesses, b.culpritProcesses);
  ASSERT_EQ(a.hotspots.size(), b.hotspots.size());
  for (std::size_t i = 0; i < a.hotspots.size(); ++i) {
    const auto& ha = a.hotspots[i];
    const auto& hb = b.hotspots[i];
    EXPECT_EQ(ha.process, hb.process);
    EXPECT_EQ(ha.iteration, hb.iteration);
    EXPECT_EQ(ha.sosSeconds, hb.sosSeconds);
    EXPECT_EQ(ha.durationSeconds, hb.durationSeconds);
    EXPECT_EQ(ha.globalZ, hb.globalZ);
    EXPECT_EQ(ha.iterationZ, hb.iterationZ);
  }
  EXPECT_EQ(a.durationTrend.slope, b.durationTrend.slope);
  EXPECT_EQ(a.durationTrend.intercept, b.durationTrend.intercept);
  EXPECT_EQ(a.durationTrend.r2, b.durationTrend.r2);
  EXPECT_EQ(a.sosTrend.slope, b.sosTrend.slope);
  EXPECT_EQ(a.sosTrend.intercept, b.sosTrend.intercept);
  EXPECT_EQ(a.sosTrend.r2, b.sosTrend.r2);
  EXPECT_EQ(a.sosMedian, b.sosMedian);
  EXPECT_EQ(a.sosMad, b.sosMad);
  EXPECT_EQ(a.sosSummary.count, b.sosSummary.count);
  EXPECT_EQ(a.sosSummary.min, b.sosSummary.min);
  EXPECT_EQ(a.sosSummary.max, b.sosSummary.max);
  EXPECT_EQ(a.sosSummary.mean, b.sosSummary.mean);
  EXPECT_EQ(a.sosSummary.stddev, b.sosSummary.stddev);
  EXPECT_EQ(a.sosSummary.sum, b.sosSummary.sum);
}

void expectProfileEqual(const profile::FlatProfile& a,
                        const profile::FlatProfile& b,
                        const trace::Trace& tr) {
  ASSERT_EQ(a.processCount(), b.processCount());
  ASSERT_EQ(a.functionCount(), b.functionCount());
  for (std::size_t p = 0; p < a.processCount(); ++p) {
    for (std::size_t f = 0; f < tr.functions.size(); ++f) {
      const auto& sa = a.process(static_cast<trace::ProcessId>(p),
                                 static_cast<trace::FunctionId>(f));
      const auto& sb = b.process(static_cast<trace::ProcessId>(p),
                                 static_cast<trace::FunctionId>(f));
      EXPECT_EQ(sa.invocations, sb.invocations);
      EXPECT_EQ(sa.inclusive, sb.inclusive);
      EXPECT_EQ(sa.exclusive, sb.exclusive);
      EXPECT_EQ(sa.minInclusive, sb.minInclusive);
      EXPECT_EQ(sa.maxInclusive, sb.maxInclusive);
    }
  }
  for (std::size_t f = 0; f < tr.functions.size(); ++f) {
    const auto& sa = a.aggregated(static_cast<trace::FunctionId>(f));
    const auto& sb = b.aggregated(static_cast<trace::FunctionId>(f));
    EXPECT_EQ(sa.invocations, sb.invocations);
    EXPECT_EQ(sa.inclusive, sb.inclusive);
    EXPECT_EQ(sa.exclusive, sb.exclusive);
    EXPECT_EQ(sa.minInclusive, sb.minInclusive);
    EXPECT_EQ(sa.maxInclusive, sb.maxInclusive);
  }
}

// ---- the differential matrix ---------------------------------------------

TEST(ParallelDifferential, FullPipelineMatchesSerialAcrossMatrix) {
  const auto cases = buildMatrix();
  for (const auto& c : cases) {
    const analysis::AnalysisResult serial = analysis::analyzeTrace(c.tr);
    for (const std::size_t threads : threadMatrix()) {
      SCOPED_TRACE(std::string(c.name) + ", threads=" +
                   std::to_string(threads));
      analysis::PipelineOptions opts;
      opts.threads = threads;
      const analysis::AnalysisResult par = analysis::analyzeTrace(c.tr, opts);
      expectProfileEqual(serial.profile, par.profile, c.tr);
      expectSelectionEqual(serial.selection, par.selection);
      EXPECT_EQ(serial.segmentFunction, par.segmentFunction);
      expectSosEqual(*serial.sos, *par.sos);
      expectVariationEqual(serial.variation, par.variation);
      // The rendered report is a function of the above, but diff it too:
      // it is what users actually read.
      EXPECT_EQ(analysis::formatAnalysis(c.tr, serial),
                analysis::formatAnalysis(c.tr, par));
    }
  }
}

TEST(ParallelDifferential, StageEntryPointsMatchSerial) {
  // Each per-rank stage takes an optional pool: nullptr runs it inline,
  // a pool shards its rank loop. Both must give bit-identical results.
  apps::ScaleConfig skewed;
  skewed.ranks = 48;
  skewed.iterations = 4;
  skewed.skewTailPerMille = 100;
  skewed.skewEventsFactor = 32;
  std::vector<Case> cases;
  cases.push_back({"simulated", buildSimulated()});
  cases.push_back({"skewed_scale", apps::buildScaleTrace(skewed)});
  util::ThreadPool pool(4);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const profile::FlatProfile inlineProfile =
        profile::FlatProfile::build(c.tr, nullptr);
    expectProfileEqual(inlineProfile,
                       profile::FlatProfile::build(c.tr, &pool), c.tr);

    const auto selection =
        analysis::selectDominantFunction(c.tr, inlineProfile);
    ASSERT_TRUE(selection.hasDominant());
    const auto f = selection.dominant().function;
    const analysis::SosResult inlineSos =
        analysis::analyzeSos(c.tr, f, analysis::SyncClassifier{}, nullptr);
    const analysis::SosResult pooledSos =
        analysis::analyzeSos(c.tr, f, analysis::SyncClassifier{}, &pool);
    expectSosEqual(inlineSos, pooledSos);

    expectVariationEqual(analysis::analyzeVariation(inlineSos, {}, nullptr),
                         analysis::analyzeVariation(pooledSos, {}, &pool));
  }
}

// ---- thread pool unit coverage -------------------------------------------

TEST(ThreadPool, ParallelChunksCoversTheIndexSpaceExactlyOnce) {
  // One pool serves call after call; the null pool runs inline.
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.threadCount(), 4u);
  for (util::ThreadPool* p : {&pool, &pool, &pool,
                              static_cast<util::ThreadPool*>(nullptr)}) {
    std::vector<int> hits(100, 0);
    util::parallelChunks(p, hits.size(),
                         [&](std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i) {
                             ++hits[i];
                           }
                         });
    for (const int h : hits) {
      EXPECT_EQ(h, 1);
    }
  }
}

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_GE(util::ThreadPool::resolveThreadCount(0), 1u);
  EXPECT_EQ(util::ThreadPool::resolveThreadCount(3), 3u);
}

// ---- lifetime guard (satellite: dangling-trace fix) ----------------------

// Passing a temporary trace to the pipeline or SOS analyzers used to
// compile and dangle (AnalysisResult/SosResult keep a pointer into the
// trace); the rvalue overloads are deleted now. The lvalue path is
// exercised by every other test in this file.
template <typename T>
concept AnalyzableAsTemporary = requires(T t) {
  analysis::analyzeTrace(std::move(t));
};
template <typename T>
concept SosAnalyzableAsTemporary = requires(T t) {
  analysis::analyzeSos(std::move(t), trace::FunctionId{0});
};
static_assert(!AnalyzableAsTemporary<trace::Trace>,
              "analyzeTrace must reject temporary traces");
static_assert(!SosAnalyzableAsTemporary<trace::Trace>,
              "analyzeSos must reject temporary traces");
template <typename T>
concept PooledSosAnalyzableAsTemporary =
    requires(T t, util::ThreadPool* pool) {
      analysis::analyzeSos(std::move(t), trace::FunctionId{0},
                           analysis::SyncClassifier{}, pool);
    };
static_assert(!PooledSosAnalyzableAsTemporary<trace::Trace>,
              "the pool-taking analyzeSos must reject temporary traces");
template <typename T>
concept AnalyzableAsLvalue = requires(T& t) { analysis::analyzeTrace(t); };
static_assert(AnalyzableAsLvalue<trace::Trace>,
              "lvalue traces must still be accepted");

}  // namespace
}  // namespace perfvar
