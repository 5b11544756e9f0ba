/// Differential + concurrency tests for engine::AnalysisEngine: every
/// answer the engine serves — cold, warm (cache hit), serial or pooled —
/// must be byte-identical to a fresh analyzeTrace() run with the same
/// options, across the three canonical scenario traces (Figure 2,
/// Figure 3, small COSMO-SPECS). Labeled `parallel` so the TSan CI job
/// exercises the concurrent query paths.

#include <gtest/gtest.h>

#include <cstdio>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/depgraph.hpp"
#include "analysis/pipeline.hpp"
#include "apps/cosmo_specs.hpp"
#include "apps/desync_stencil.hpp"
#include "apps/paper_examples.hpp"
#include "apps/pipeline_chain.hpp"
#include "engine/engine.hpp"
#include "lint/lint.hpp"
#include "sim/simulator.hpp"
#include "trace/binary_io.hpp"
#include "trace/builder.hpp"
#include "util/error.hpp"

namespace perfvar {
namespace {

trace::Trace smallCosmo() {
  apps::CosmoSpecsConfig cfg;
  cfg.gridX = 4;
  cfg.gridY = 4;
  cfg.timesteps = 12;
  const auto scenario = apps::buildCosmoSpecs(cfg);
  return sim::simulate(scenario.program, scenario.simOptions);
}

struct Scenario {
  const char* name;
  trace::Trace tr;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  out.push_back({"figure2", apps::buildFigure2Trace()});
  out.push_back({"figure3", apps::buildFigure3Trace()});
  out.push_back({"cosmo4x4", smallCosmo()});
  return out;
}

/// The reference answer: a fresh serial pipeline run rendered to text
/// (formatAnalysis covers every stage's fields, so byte equality of the
/// report is the differential oracle the golden tests already rely on).
std::string reference(const trace::Trace& tr,
                      const analysis::PipelineOptions& opts = {}) {
  return analysis::formatAnalysis(tr, analysis::analyzeTrace(tr, opts));
}

// ---- warm cache is byte-identical to analyzeTrace ------------------------

TEST(Engine, ColdAndWarmQueriesMatchSerialPipeline) {
  for (auto& s : scenarios()) {
    SCOPED_TRACE(s.name);
    const std::string expected = reference(s.tr);
    engine::AnalysisEngine eng{std::move(s.tr)};

    EXPECT_EQ(eng.formatReport(), expected);  // cold: every stage computed
    const engine::CacheStats afterCold = eng.cacheStats();
    EXPECT_EQ(afterCold.hits, 0u);
    EXPECT_GT(afterCold.misses, 0u);
    EXPECT_GT(afterCold.bytes, 0u);

    EXPECT_EQ(eng.formatReport(), expected);  // warm: every stage a hit
    const engine::CacheStats afterWarm = eng.cacheStats();
    EXPECT_GT(afterWarm.hits, afterCold.hits);
    EXPECT_EQ(afterWarm.misses, afterCold.misses);
  }
}

TEST(Engine, PooledEngineMatchesSerialPipeline) {
  for (auto& s : scenarios()) {
    SCOPED_TRACE(s.name);
    const std::string expected = reference(s.tr);
    engine::EngineOptions eopts;
    eopts.threads = 4;
    engine::AnalysisEngine eng{std::move(s.tr), eopts};
    EXPECT_EQ(eng.formatReport(), expected);
    EXPECT_EQ(eng.formatReport(), expected);
  }
}

TEST(Engine, ExportsMatchTheUnifiedExporters) {
  const trace::Trace tr = apps::buildFigure3Trace();  // outlives `serial`
  const analysis::AnalysisResult serial = analysis::analyzeTrace(tr);
  engine::AnalysisEngine eng{trace::Trace(tr)};
  using analysis::ExportFormat;
  for (const ExportFormat format :
       {ExportFormat::Text, ExportFormat::Json, ExportFormat::Csv,
        ExportFormat::CsvIterations, ExportFormat::CsvHotspots}) {
    std::ostringstream viaEngine;
    eng.exportReport(format, viaEngine);
    EXPECT_EQ(viaEngine.str(), analysis::exportReportString(tr, serial, format));
  }
}

// ---- drill-down sweeps reuse upstream stages -----------------------------

TEST(Engine, CandidateIndexSweepMatchesSerialAndSkipsUpstreamStages) {
  trace::Trace cosmo = smallCosmo();
  const trace::Trace probe = cosmo;  // analyzeTrace needs an lvalue copy
  engine::AnalysisEngine eng{std::move(cosmo)};
  const std::size_t candidates =
      eng.dominant()->candidates.size();
  ASSERT_GE(candidates, 1u);

  for (std::size_t k = 0; k < candidates && k < 3; ++k) {
    SCOPED_TRACE("candidate=" + std::to_string(k));
    analysis::PipelineOptions opts;
    opts.candidateIndex = k;
    EXPECT_EQ(eng.formatReport(opts), reference(probe, opts));
  }

  // A re-queried candidateIndex is a pure cache hit: no new misses.
  const engine::CacheStats before = eng.cacheStats();
  analysis::PipelineOptions opts;
  opts.candidateIndex = 0;
  (void)eng.analyze(opts);
  const engine::CacheStats after = eng.cacheStats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_GT(after.hits, before.hits);
}

TEST(Engine, ThresholdSweepRecomputesOnlyTheVariationStage) {
  trace::Trace cosmo = smallCosmo();
  const trace::Trace probe = cosmo;
  engine::AnalysisEngine eng{std::move(cosmo)};
  (void)eng.analyze();  // warm profile/dominant/SOS
  const engine::CacheStats warm = eng.cacheStats();

  for (const double z : {2.0, 2.5, 3.0}) {
    SCOPED_TRACE("outlierThreshold=" + std::to_string(z));
    analysis::PipelineOptions opts;
    opts.variation.outlierThreshold = z;
    EXPECT_EQ(eng.formatReport(opts), reference(probe, opts));
  }
  // Three new variation keys -> exactly three misses; the profile,
  // dominant and SOS stages were all served from cache.
  EXPECT_EQ(eng.cacheStats().misses, warm.misses + 3);

  // maxHotspots is part of the variation fingerprint too.
  analysis::PipelineOptions opts;
  opts.variation.maxHotspots = 1;
  EXPECT_EQ(eng.formatReport(opts), reference(probe, opts));
}

TEST(Engine, DominantOptionsAreKeyedSeparately) {
  trace::Trace tr = apps::buildFigure2Trace();
  const trace::Trace probe = tr;
  engine::AnalysisEngine eng{std::move(tr)};
  analysis::DominantOptions strict;
  strict.invocationMultiplier = 3;
  const auto base = eng.dominant();
  const auto strictSel = eng.dominant(strict);
  EXPECT_EQ(base->candidates.size(),
            analysis::selectDominantFunction(probe).candidates.size());
  EXPECT_EQ(strictSel->candidates.size(),
            analysis::selectDominantFunction(probe, strict).candidates.size());
  // Both keys now resident: re-queries are hits.
  const engine::CacheStats before = eng.cacheStats();
  (void)eng.dominant();
  (void)eng.dominant(strict);
  EXPECT_EQ(eng.cacheStats().misses, before.misses);
}

// ---- error behavior matches analyzeTrace ---------------------------------

TEST(Engine, ErrorsMatchAnalyzeTrace) {
  trace::Trace tr = apps::buildFigure3Trace();
  engine::AnalysisEngine eng{std::move(tr)};
  analysis::PipelineOptions opts;
  opts.candidateIndex = 10000;
  EXPECT_THROW((void)eng.analyze(opts), Error);

  // A trace with no qualifying candidate throws like the pipeline does.
  trace::TraceBuilder b(1);
  const auto f = b.defineFunction("main");
  b.enter(0, 0, f);
  b.leave(0, 100, f);
  engine::AnalysisEngine empty{b.finish()};
  EXPECT_THROW((void)empty.analyze(), Error);
}

// ---- eviction and lifetime -----------------------------------------------

TEST(Engine, LruEvictionKeepsResultsCorrectAndOwned) {
  trace::Trace cosmo = smallCosmo();
  const trace::Trace probe = cosmo;
  engine::EngineOptions eopts;
  eopts.maxCacheEntries = 3;  // profile exempt; forces derived-stage churn
  engine::AnalysisEngine eng{std::move(cosmo), eopts};

  const engine::EngineResult first = eng.analyze();
  const std::string firstReport = reference(probe);

  for (int i = 0; i < 6; ++i) {  // six distinct variation keys
    analysis::PipelineOptions opts;
    opts.variation.maxHotspots = static_cast<std::size_t>(10 + i);
    EXPECT_EQ(eng.formatReport(opts), reference(probe, opts));
  }
  EXPECT_GT(eng.cacheStats().evictions, 0u);

  // The result handed out before the churn still works (shared ownership).
  EXPECT_EQ(analysis::formatAnalysis(first.trace, *first.selection,
                                     *first.sos, *first.variation),
            firstReport);
  // And a re-query after eviction recomputes correctly.
  EXPECT_EQ(eng.formatReport(), firstReport);
}

TEST(Engine, ResultOutlivesTheEngine) {
  engine::EngineResult result;
  std::string expected;
  {
    trace::Trace tr = apps::buildFigure2Trace();
    expected = reference(tr);
    engine::AnalysisEngine eng{std::move(tr)};
    result = eng.analyze();
  }
  // The engine is gone; the shared view and stages keep the result valid.
  EXPECT_EQ(analysis::formatAnalysis(result.trace, *result.selection,
                                     *result.sos, *result.variation),
            expected);
}

// ---- file loading --------------------------------------------------------

TEST(Engine, FromFileAnswersLikeTheInMemoryEngine) {
  const trace::Trace tr = apps::buildFigure3Trace();
  const std::string path = "engine_test_fig3.pvt";
  trace::saveBinaryFile(tr, path);
  auto eng = engine::AnalysisEngine::fromFile(path);
  EXPECT_EQ(eng.formatReport(), reference(tr));
  std::remove(path.c_str());
}

// ---- lint and the dependency report share the analysis stages -----------

TEST(Engine, LintAndDependencyReportReuseTheAnalysisStages) {
  const trace::Trace tr = smallCosmo();
  for (const bool analyzeFirst : {true, false}) {
    SCOPED_TRACE(analyzeFirst ? "analyze first" : "lint first");
    engine::AnalysisEngine eng{trace::Trace(tr)};
    if (analyzeFirst) {
      (void)eng.analyze();
      (void)eng.lintReport();
    } else {
      (void)eng.lintReport();
      (void)eng.analyze();
    }
    (void)eng.formatDepReport();
    // Misses: profile, dominant, SOS, variation, dep and lint, each once.
    // Hits: the second asker of the profile and of the dominant ranking,
    // and the dependency report reading lint's dep entry.
    const engine::CacheStats stats = eng.cacheStats();
    EXPECT_EQ(stats.misses, 6u);
    EXPECT_EQ(stats.hits, 3u);
  }
}

TEST(Engine, SharedLintAndDependencyReportsMatchTheStandaloneCalls) {
  // The planted pipeline and stencil traces make the dependency rules
  // fire, so lint's findings depend on the shared dep entry.
  std::vector<Scenario> traces;
  traces.push_back({"cosmo4x4", smallCosmo()});
  traces.push_back({"pipeline", apps::buildPipelineTrace({})});
  traces.push_back({"stencil", apps::buildStencilTrace({})});
  for (const Scenario& s : traces) {
    SCOPED_TRACE(s.name);
    const std::string lintBytes =
        lint::formatLintReport(lint::lintTrace(s.tr));
    const std::string depBytes = analysis::formatDepAnalysis(
        s.tr, analysis::analyzeDependencies(s.tr));
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(threads);
      lint::LintOptions lopts;
      lopts.threads = threads;
      EXPECT_EQ(lint::formatLintReport(lint::lintTrace(s.tr, lopts)),
                lintBytes);
      engine::EngineOptions eopts;
      eopts.threads = threads;
      engine::AnalysisEngine eng{trace::Trace(s.tr), eopts};
      EXPECT_EQ(lint::formatLintReport(*eng.lintReport()), lintBytes);
      EXPECT_EQ(eng.formatDepReport(), depBytes);
    }
  }
}

// ---- shard decodes per stage on the lazy path ----------------------------

/// One-thread decode counts of each report stage over a v2 file whose
/// shard budget holds about half the decoded trace. The first pass over
/// the ranks decodes all of them; new shards enter the cache's cold end,
/// so the ranks that filled the budget stay resident and each later pass
/// decodes only the ranks that did not fit. A stage that re-reads the
/// trace shows here.
TEST(Engine, ShardDecodesPerStageArePinned) {
  const trace::Trace tr = smallCosmo();
  const std::string path = "engine_test_shard_decodes.pvt";
  trace::saveBinaryFile(tr, path);
  trace::TraceViewOptions vopts;
  {
    const trace::TraceView all = trace::TraceView::openFile(path);
    for (trace::ProcessId p = 0; p < all.processCount(); ++p) {
      (void)all.rank(p);
    }
    vopts.shardBudgetBytes = all.stats().residentBytes / 2;
  }

  const trace::TraceView view = trace::TraceView::openFile(path, vopts);
  engine::AnalysisEngine eng{view};
  std::uint64_t seen = 0;
  const auto decodesSince = [&] {
    const std::uint64_t now = view.stats().shardDecodes;
    const std::uint64_t delta = now - seen;
    seen = now;
    return delta;
  };
  // 16 ranks: the first pass decodes all 16, each later pass the 10 that
  // did not fit.
  (void)eng.analyze();
  EXPECT_EQ(decodesSince(), 26u);  // profile, SOS
  (void)eng.lintReport();
  // The per-rank phase and the dependency graph; the profile and dominant
  // ranking are hits.
  EXPECT_EQ(decodesSince(), 20u);
  (void)eng.formatDepReport();
  EXPECT_EQ(decodesSince(), 0u);  // lint's dep entry

  // Standalone lint: the per-rank phase and the dependency graph plus its
  // own profile.
  const trace::TraceView fresh = trace::TraceView::openFile(path, vopts);
  (void)lint::lintTrace(fresh);
  EXPECT_EQ(fresh.stats().shardDecodes, 36u);
  std::remove(path.c_str());
}

// ---- stats rendering -----------------------------------------------------

TEST(Engine, FormatCacheStatsIsStable) {
  engine::CacheStats stats;
  stats.hits = 7;
  stats.misses = 3;
  stats.evictions = 1;
  stats.bytes = 4096;
  EXPECT_EQ(engine::formatCacheStats(stats),
            "cache: hits=7 misses=3 evictions=1 bytes=4096");
}

// ---- concurrency (the TSan job runs this file) ---------------------------

TEST(Engine, ConcurrentMixedQueriesAgreeWithSerialAnswers) {
  trace::Trace cosmo = smallCosmo();
  const trace::Trace probe = cosmo;
  engine::EngineOptions eopts;
  eopts.threads = 2;  // pool + concurrent callers: the contended path
  engine::AnalysisEngine eng{std::move(cosmo), eopts};

  // Precompute the expected answers serially.
  std::vector<analysis::PipelineOptions> queries;
  for (const double z : {2.5, 3.5}) {
    analysis::PipelineOptions opts;
    opts.variation.outlierThreshold = z;
    queries.push_back(opts);
  }
  std::vector<std::string> expected;
  expected.reserve(queries.size());
  for (const auto& q : queries) {
    expected.push_back(reference(probe, q));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<int> mismatches(kThreads, 0);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int r = 0; r < kRounds; ++r) {
          const std::size_t q =
              static_cast<std::size_t>(t + r) % queries.size();
          if (eng.formatReport(queries[q]) != expected[q]) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      });
    }
    for (auto& w : workers) {
      w.join();
    }
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0)
        << "thread " << t << " observed a divergent cached answer";
  }

  // Exactly queries.size() variation keys (plus the shared upstream
  // stages) were ever computed; everything else was served from cache.
  const engine::CacheStats stats = eng.cacheStats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(Engine, ConcurrentLintAnalyzeAndDepQueriesShareOneStageSet) {
  const trace::Trace tr = smallCosmo();
  const std::string report = reference(tr);
  const std::string lintBytes = lint::formatLintReport(lint::lintTrace(tr));
  const std::string depBytes =
      analysis::formatDepAnalysis(tr, analysis::analyzeDependencies(tr));
  engine::EngineOptions eopts;
  eopts.threads = 2;  // lint's global phase re-enters the shared pool
  engine::AnalysisEngine eng{trace::Trace(tr), eopts};

  constexpr int kThreads = 6;
  std::vector<int> mismatches(kThreads, 0);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        int& bad = mismatches[static_cast<std::size_t>(t)];
        for (int r = 0; r < 3; ++r) {
          switch ((t + r) % 3) {
            case 0:
              bad += eng.formatReport() != report ? 1 : 0;
              break;
            case 1:
              bad += lint::formatLintReport(*eng.lintReport()) != lintBytes
                         ? 1
                         : 0;
              break;
            default:
              bad += eng.formatDepReport() != depBytes ? 1 : 0;
              break;
          }
        }
      });
    }
    for (auto& w : workers) {
      w.join();
    }
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
}

TEST(Engine, ConcurrentColdQueriesComputeEachStageOnce) {
  const trace::Trace tr = smallCosmo();
  const std::string report = reference(tr);
  engine::EngineOptions eopts;
  eopts.threads = 2;
  engine::AnalysisEngine eng{trace::Trace(tr), eopts};

  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        start.arrive_and_wait();
        mismatches[static_cast<std::size_t>(t)] +=
            eng.formatReport() != report ? 1 : 0;
        (void)eng.formatDepReport();
      });
    }
    for (auto& w : workers) {
      w.join();
    }
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  // Profile, dominant, SOS, variation and dep are computed once each
  // however the threads interleave; every other lookup waits or hits.
  const engine::CacheStats stats = eng.cacheStats();
  EXPECT_EQ(stats.misses, 5u);
  EXPECT_EQ(stats.hits, 5u * (kThreads - 1));
}

TEST(Engine, ConcurrentFailingStageThrowsForEveryCaller) {
  engine::EngineOptions eopts;
  eopts.threads = 2;
  engine::AnalysisEngine eng{apps::buildFigure3Trace(), eopts};
  analysis::PipelineOptions bad;
  bad.candidateIndex = 10000;

  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<int> thrown(kThreads, 0);
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        start.arrive_and_wait();
        try {
          (void)eng.analyze(bad);
        } catch (const Error&) {
          thrown[static_cast<std::size_t>(t)] = 1;
        }
      });
    }
    for (auto& w : workers) {
      w.join();
    }
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(thrown[static_cast<std::size_t>(t)], 1) << "thread " << t;
  }
  // The failed key stays missing; the engine still answers.
  EXPECT_EQ(eng.formatReport(), reference(apps::buildFigure3Trace()));
}

}  // namespace
}  // namespace perfvar
