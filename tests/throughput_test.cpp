/// Differential matrix of the throughput engineering pass: every thread
/// count must produce byte-identical analysis output to a serial run
/// assembled from the pre-optimization reference kernels on skewed,
/// uniform and empty-rank traces. The reference row builders live here as
/// test oracles: the std::function-visitor replays the inlined replay
/// kernels replaced. Plus direct coverage of the work-stealing chunk
/// scheduler itself: full coverage, inline fallbacks, exception
/// propagation, independent concurrent calls and the ThreadPoolStats
/// counters. Runs under the TSan CI job (label: parallel).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/pipeline.hpp"
#include "analysis/sos.hpp"
#include "apps/scale_synthetic.hpp"
#include "profile/profile.hpp"
#include "trace/replay.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace perfvar {
namespace {

// ---- reference kernels (oracles) -------------------------------------------

/// The original std::function-visitor profile row builder. Must stay
/// bit-identical to FlatProfile::buildProcess.
std::vector<profile::FunctionStats> buildProcessReference(
    const trace::TraceView& tr, trace::ProcessId p) {
  PERFVAR_REQUIRE(p < tr.processCount(), "invalid process id");
  const std::size_t nFuncs = tr.functions().size();
  std::vector<profile::FunctionStats> row(nFuncs);
  for (std::size_t f = 0; f < nFuncs; ++f) {
    row[f].function = static_cast<trace::FunctionId>(f);
  }
  trace::ReplayVisitor v;
  v.onLeave = [&](const trace::Frame& frame) {
    row[frame.function].add(frame.inclusive(), frame.exclusive());
  };
  const trace::RankPin pin = tr.rank(p);
  trace::replayEvents(pin.events(), v);
  return row;
}

/// The original std::function-visitor SOS row analyzer. Must stay
/// bit-identical to analysis::detail::analyzeSosProcess.
std::vector<analysis::SegmentAnalysis> analyzeSosProcessReference(
    const trace::TraceView& tr, trace::ProcessId p,
    trace::FunctionId segmentFunction, const std::vector<bool>& syncMask) {
  using analysis::kParadigmCount;
  using analysis::SegmentAnalysis;
  PERFVAR_REQUIRE(p < tr.processCount(), "invalid process id");
  const std::size_t nMetrics = tr.metrics().size();
  std::vector<SegmentAnalysis> segments;

  // Per-process replay state.
  std::size_t segNesting = 0;       // nesting inside the segment function
  trace::Timestamp segStart = 0;    // enter of the outermost invocation
  SegmentAnalysis current;          // accumulators of the open segment
  std::size_t syncNesting = 0;      // nesting inside sync functions
  trace::Timestamp syncStart = 0;
  std::array<std::size_t, kParadigmCount> paradigmNesting{};
  std::array<trace::Timestamp, kParadigmCount> paradigmStart{};
  // Last observed cumulative value of every metric (for deltas).
  std::vector<double> lastMetric(nMetrics, 0.0);
  std::vector<bool> seenMetric(nMetrics, false);

  const auto beginSegment = [&](trace::Timestamp t) {
    current = SegmentAnalysis{};
    current.metricDelta.assign(nMetrics, 0.0);
    segStart = t;
  };

  trace::ReplayVisitor v;
  v.onEnter = [&](trace::FunctionId fn, trace::Timestamp t, std::size_t) {
    if (fn == segmentFunction) {
      if (segNesting == 0) {
        beginSegment(t);
      }
      ++segNesting;
    }
    if (segNesting > 0) {
      const auto& def = tr.functions().at(fn);
      const auto par = static_cast<std::size_t>(def.paradigm);
      if (paradigmNesting[par]++ == 0) {
        paradigmStart[par] = t;
      }
      if (syncMask[fn]) {
        if (syncNesting++ == 0) {
          syncStart = t;
        }
      }
    }
  };
  v.onLeave = [&](const trace::Frame& frame) {
    if (segNesting > 0) {
      const auto& def = tr.functions().at(frame.function);
      const auto par = static_cast<std::size_t>(def.paradigm);
      PERFVAR_ASSERT(paradigmNesting[par] > 0, "paradigm nesting underflow");
      if (--paradigmNesting[par] == 0) {
        current.paradigmTime[par] += frame.leaveTime - paradigmStart[par];
      }
      if (syncMask[frame.function]) {
        PERFVAR_ASSERT(syncNesting > 0, "sync nesting underflow");
        if (--syncNesting == 0) {
          current.syncTime += frame.leaveTime - syncStart;
        }
      }
    }
    if (frame.function == segmentFunction) {
      PERFVAR_ASSERT(segNesting > 0, "segment nesting underflow");
      if (--segNesting == 0) {
        current.segment.process = p;
        current.segment.index =
            static_cast<std::uint32_t>(segments.size());
        current.segment.enter = segStart;
        current.segment.leave = frame.leaveTime;
        const trace::Timestamp duration = current.segment.inclusive();
        PERFVAR_ASSERT(current.syncTime <= duration,
                       "sync time exceeds segment duration");
        current.sosTime = duration - current.syncTime;
        segments.push_back(std::move(current));
        current = SegmentAnalysis{};
      }
    }
  };
  v.onMetric = [&](const trace::Event& e, std::size_t) {
    const trace::MetricId m = e.ref;
    const bool accumulated =
        tr.metrics().at(m).mode == trace::MetricMode::Accumulated;
    if (segNesting > 0 && !current.metricDelta.empty()) {
      if (accumulated) {
        const double base = seenMetric[m] ? lastMetric[m] : 0.0;
        current.metricDelta[m] += e.value - base;
      } else {
        current.metricDelta[m] = e.value;
      }
    }
    lastMetric[m] = e.value;
    seenMetric[m] = true;
  };
  const trace::RankPin pin = tr.rank(p);
  trace::replayEvents(pin.events(), v);
  return segments;
}

/// The whole pipeline assembled on the calling thread from reference
/// rows: profile rows -> dominant selection -> SOS rows -> variation.
analysis::AnalysisResult analyzeWithReferenceKernels(
    const trace::TraceView& tr) {
  analysis::AnalysisResult result;
  std::vector<std::vector<profile::FunctionStats>> profileRows(
      tr.processCount());
  for (std::size_t p = 0; p < tr.processCount(); ++p) {
    profileRows[p] =
        buildProcessReference(tr, static_cast<trace::ProcessId>(p));
  }
  result.profile =
      profile::FlatProfile::fromPerProcess(tr, std::move(profileRows));
  result.selection = analysis::selectDominantFunction(tr, result.profile);
  result.segmentFunction = result.selection.candidateFunction(0);
  const std::vector<bool> syncMask = analysis::SyncClassifier{}.mask(tr);
  std::vector<std::vector<analysis::SegmentAnalysis>> sosRows(
      tr.processCount());
  for (std::size_t p = 0; p < tr.processCount(); ++p) {
    sosRows[p] = analyzeSosProcessReference(
        tr, static_cast<trace::ProcessId>(p), result.segmentFunction,
        syncMask);
  }
  result.sos = std::make_unique<analysis::SosResult>(
      tr, result.segmentFunction, std::move(sosRows));
  result.variation = analysis::analyzeVariation(*result.sos);
  return result;
}

// ---- fixtures --------------------------------------------------------------

apps::ScaleConfig smallConfig() {
  apps::ScaleConfig cfg;
  cfg.ranks = 48;
  cfg.iterations = 4;
  return cfg;
}

/// Uniform event density across ranks.
const trace::Trace& uniformTrace() {
  static const trace::Trace tr = apps::buildScaleTrace(smallConfig());
  return tr;
}

/// 10% of ranks carry 32 extra nested compute pairs per iteration — the
/// shape work stealing exists for.
const trace::Trace& skewedTrace() {
  static const trace::Trace tr = [] {
    apps::ScaleConfig cfg = smallConfig();
    cfg.skewTailPerMille = 100;
    cfg.skewEventsFactor = 32;
    return apps::buildScaleTrace(cfg);
  }();
  return tr;
}

/// Uniform trace with one rank's event stream emptied: a degenerate
/// shard the scheduler and every per-rank kernel must pass through.
const trace::Trace& emptyRankTrace() {
  static const trace::Trace tr = [] {
    trace::Trace t = apps::buildScaleTrace(smallConfig());
    t.processes[t.processes.size() / 2].events.clear();
    return t;
  }();
  return tr;
}

std::vector<const trace::Trace*> traceMatrix() {
  return {&uniformTrace(), &skewedTrace(), &emptyRankTrace()};
}

// ---- the differential matrix ----------------------------------------------

TEST(ThroughputMatrix, AllSchedulesMatchSerialReferenceByteForByte) {
  for (const trace::Trace* tr : traceMatrix()) {
    const analysis::AnalysisResult oracle = analyzeWithReferenceKernels(*tr);
    const std::string oracleText = analysis::formatAnalysis(*tr, oracle);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      analysis::PipelineOptions opts;
      opts.threads = threads;
      const analysis::AnalysisResult result =
          analysis::analyzeTrace(*tr, opts);
      EXPECT_EQ(analysis::formatAnalysis(*tr, result), oracleText)
          << "threads=" << threads;

      // The formatted report rounds; the numeric fields must match bit
      // for bit as well.
      ASSERT_EQ(result.variation.processes.size(),
                oracle.variation.processes.size());
      for (std::size_t p = 0; p < oracle.variation.processes.size(); ++p) {
        EXPECT_EQ(result.variation.processes[p].totalZ,
                  oracle.variation.processes[p].totalZ);
        EXPECT_EQ(result.variation.processes[p].totalSos,
                  oracle.variation.processes[p].totalSos);
      }
      ASSERT_EQ(result.variation.hotspots.size(),
                oracle.variation.hotspots.size());
      for (std::size_t h = 0; h < oracle.variation.hotspots.size(); ++h) {
        EXPECT_EQ(result.variation.hotspots[h].globalZ,
                  oracle.variation.hotspots[h].globalZ);
        EXPECT_EQ(result.variation.hotspots[h].iterationZ,
                  oracle.variation.hotspots[h].iterationZ);
        EXPECT_EQ(result.variation.hotspots[h].process,
                  oracle.variation.hotspots[h].process);
        EXPECT_EQ(result.variation.hotspots[h].iteration,
                  oracle.variation.hotspots[h].iteration);
      }
    }
  }
}

// ---- per-rank kernel oracles ----------------------------------------------

TEST(ThroughputKernels, ProfileVisitorMatchesReference) {
  for (const trace::Trace* tr : traceMatrix()) {
    const trace::TraceView view(*tr);
    for (std::size_t p = 0; p < view.processCount(); ++p) {
      const auto rank = static_cast<trace::ProcessId>(p);
      const auto fast = profile::FlatProfile::buildProcess(view, rank);
      const auto ref = buildProcessReference(view, rank);
      ASSERT_EQ(fast.size(), ref.size());
      for (std::size_t f = 0; f < ref.size(); ++f) {
        EXPECT_EQ(fast[f].invocations, ref[f].invocations);
        EXPECT_EQ(fast[f].inclusive, ref[f].inclusive);
        EXPECT_EQ(fast[f].exclusive, ref[f].exclusive);
        EXPECT_EQ(fast[f].minInclusive, ref[f].minInclusive);
        EXPECT_EQ(fast[f].maxInclusive, ref[f].maxInclusive);
      }
    }
  }
}

TEST(ThroughputKernels, SosVisitorMatchesReference) {
  for (const trace::Trace* tr : traceMatrix()) {
    const trace::TraceView view(*tr);
    const auto selection = analysis::selectDominantFunction(view);
    ASSERT_TRUE(selection.hasDominant());
    const trace::FunctionId fn = selection.dominant().function;
    const std::vector<bool> mask = analysis::SyncClassifier{}.mask(view);
    analysis::detail::SosFold fold(view.functions(), view.metrics(), fn,
                                   mask);
    for (std::size_t p = 0; p < view.processCount(); ++p) {
      const auto rank = static_cast<trace::ProcessId>(p);
      const auto fast = analysis::detail::analyzeSosProcess(view, rank, fold);
      const auto ref = analyzeSosProcessReference(view, rank, fn, mask);
      ASSERT_EQ(fast.size(), ref.size());
      for (std::size_t s = 0; s < ref.size(); ++s) {
        EXPECT_EQ(fast[s].segment.enter, ref[s].segment.enter);
        EXPECT_EQ(fast[s].segment.leave, ref[s].segment.leave);
        EXPECT_EQ(fast[s].segment.index, ref[s].segment.index);
        EXPECT_EQ(fast[s].syncTime, ref[s].syncTime);
        EXPECT_EQ(fast[s].sosTime, ref[s].sosTime);
        EXPECT_EQ(fast[s].paradigmTime, ref[s].paradigmTime);
        EXPECT_EQ(fast[s].metricDelta, ref[s].metricDelta);
      }
    }
  }
}

// ---- the chunk scheduler itself -------------------------------------------

TEST(ChunkScheduler, EveryIndexCoveredExactlyOnce) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    util::ThreadPool pool(workers);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{7}, std::size_t{64},
                                std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      util::parallelChunks(&pool, n, [&](std::size_t begin, std::size_t end) {
        // Any non-empty contiguous range inside [0, n) is a valid call.
        EXPECT_LT(begin, end);
        EXPECT_LE(end, n);
        for (std::size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "i=" << i << " n=" << n << " workers=" << workers;
      }
    }
  }
}

TEST(ChunkScheduler, NullPoolAndSingleChunkRunInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  const auto record = [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ranges.emplace_back(b, e);
  };
  util::parallelChunks(nullptr, 10, record);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], std::make_pair(std::size_t{0}, std::size_t{10}));

  util::ThreadPool pool(2);
  ranges.clear();
  util::parallelChunks(&pool, 1, record);
  ASSERT_EQ(ranges.size(), 1u);  // one index -> inline on the caller
  EXPECT_EQ(ranges[0], std::make_pair(std::size_t{0}, std::size_t{1}));

  util::ThreadPool single(1);
  ranges.clear();
  util::parallelChunks(&single, 5, record);
  ASSERT_EQ(ranges.size(), 1u);  // one worker -> inline on the caller
  EXPECT_EQ(ranges[0], std::make_pair(std::size_t{0}, std::size_t{5}));
}

TEST(ChunkScheduler, ExceptionPropagatesAndPoolStaysUsable) {
  util::ThreadPool pool(3);
  EXPECT_THROW(util::parallelChunks(&pool, 64,
                                    [&](std::size_t begin, std::size_t end) {
                                      if (begin <= 17 && 17 < end) {
                                        throw std::runtime_error("boom");
                                      }
                                    }),
               std::runtime_error);

  // The error stayed with its call; the pool keeps scheduling correctly.
  std::atomic<std::size_t> covered{0};
  util::parallelChunks(&pool, 64, [&](std::size_t begin, std::size_t end) {
    covered.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(covered.load(), 64u);
}

TEST(ChunkScheduler, ConcurrentCallsOnOnePoolAreIndependent) {
  // Two threads drive one pool at the same time. One body throws on a
  // single index in every round, the other never throws: the throwing
  // call must rethrow, the clean call must return normally, and both
  // must still run every index exactly once.
  util::ThreadPool pool(4);
  constexpr int kRounds = 200;
  constexpr std::size_t kThrowAt = 37;
  std::atomic<int> ready{0};
  const auto drive = [&](bool throwing, int& rethrown, int& badCoverage) {
    ready.fetch_add(1);
    while (ready.load() < 2) {
      std::this_thread::yield();
    }
    for (int round = 0; round < kRounds; ++round) {
      const std::size_t n = 64 + static_cast<std::size_t>(round);
      std::vector<std::atomic<int>> hits(n);
      try {
        util::parallelChunks(&pool, n, [&](std::size_t begin,
                                           std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
          }
          if (throwing && begin <= kThrowAt && kThrowAt < end) {
            throw std::runtime_error("boom");
          }
        });
      } catch (const std::runtime_error&) {
        ++rethrown;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (hits[i].load() != 1) {
          ++badCoverage;
          break;
        }
      }
    }
  };
  int throwingRethrown = 0;
  int throwingBad = 0;
  int cleanRethrown = 0;
  int cleanBad = 0;
  std::thread thrower(
      [&] { drive(true, throwingRethrown, throwingBad); });
  std::thread clean([&] { drive(false, cleanRethrown, cleanBad); });
  thrower.join();
  clean.join();
  EXPECT_EQ(throwingRethrown, kRounds);
  EXPECT_EQ(cleanRethrown, 0);
  EXPECT_EQ(throwingBad, 0);
  EXPECT_EQ(cleanBad, 0);
}

TEST(ChunkScheduler, StatsCountChunks) {
  util::ThreadPool pool(2);
  util::parallelChunks(&pool, 100, [](std::size_t, std::size_t) {});
  const util::ThreadPoolStats stats = pool.stats();
  ASSERT_EQ(stats.workers.size(), 2u);
  EXPECT_EQ(stats.totalChunks(), 100u);
  EXPECT_LE(stats.totalStolen(), stats.totalChunks());
  EXPECT_GT(stats.totalTasks(), 0u);

  const std::string text = util::formatThreadPoolStats(stats);
  EXPECT_NE(text.find("thread pool: 2 workers"), std::string::npos);
  EXPECT_NE(text.find("worker 0:"), std::string::npos);
}

TEST(ChunkScheduler, PipelineExportsPoolStats) {
  analysis::PipelineOptions opts;
  opts.threads = 4;
  util::ThreadPoolStats stats;
  opts.poolStats = &stats;
  const analysis::AnalysisResult result =
      analysis::analyzeTrace(skewedTrace(), opts);
  EXPECT_FALSE(result.variation.processes.empty());
  ASSERT_EQ(stats.workers.size(), 4u);
  EXPECT_GT(stats.totalChunks(), 0u);
}

}  // namespace
}  // namespace perfvar
