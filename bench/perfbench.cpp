/// \file perfbench.cpp
/// Pinned-trajectory macro-benchmark of end-to-end analysis throughput.
///
/// MAGPIE discipline: the inputs are pinned (the 64-rank paper trace and
/// a deterministic 10k-rank scale trace with an event-dense rank tail),
/// the trajectory is fixed (cold load -> full analyze -> lint -> warm
/// engine re-query -> SOS streaming replay), and every run reports the
/// same global iterations/second counter — so two builds are comparable
/// number for number.
///
/// Output: BENCH_throughput.json (override with --out FILE). --smoke
/// shrinks the scale trace and the time budgets so the run finishes in
/// seconds; ctest uses it to keep the harness from bit-rotting.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/depgraph.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/streaming.hpp"
#include "apps/cosmo_specs.hpp"
#include "apps/scale_synthetic.hpp"
#include "bench/bench_util.hpp"
#include "engine/engine.hpp"
#include "lint/lint.hpp"
#include "sim/simulator.hpp"
#include "trace/binary_io.hpp"
#include "util/json_writer.hpp"
#include "util/perf_counters.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace perfvar;
using clock_type = std::chrono::steady_clock;

double secondsSince(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// The paper-shaped 64-rank trace (same construction as perf_micro's
/// trace64 fixture).
trace::Trace makePaperTrace() {
  apps::CosmoSpecsConfig cfg;
  cfg.gridX = 4;
  cfg.gridY = 16;
  cfg.timesteps = 30;
  cfg.noiseSigma = 0.02;
  const auto scenario = apps::buildCosmoSpecs(cfg);
  return sim::simulate(scenario.program, scenario.simOptions);
}

/// The skewed scale trace: a 2% rank tail carries 256 extra nested
/// compute pairs per iteration, so per-rank replay cost is far from
/// uniform — the scenario work stealing exists for.
apps::ScaleConfig makeScaleConfig(bool smoke) {
  apps::ScaleConfig cfg;
  cfg.ranks = smoke ? 200 : 10'000;
  cfg.iterations = smoke ? 3 : 5;
  cfg.skewTailPerMille = 20;
  cfg.skewEventsFactor = smoke ? 64 : 256;
  return cfg;
}

struct StageResult {
  std::string name;
  std::size_t reps = 0;
  double seconds = 0.0;

  double secondsPerIter() const {
    return reps > 0 ? seconds / static_cast<double>(reps) : 0.0;
  }
  double itersPerSec() const {
    return seconds > 0.0 ? static_cast<double>(reps) / seconds : 0.0;
  }
};

/// Repeat `body` until `budgetSeconds` elapsed (always at least
/// `minReps`). One untimed warmup rep when `warmup` is set.
template <typename F>
StageResult timeStage(const std::string& name, double budgetSeconds,
                      std::size_t minReps, bool warmup, F&& body) {
  if (warmup) {
    body();
  }
  StageResult r;
  r.name = name;
  const auto t0 = clock_type::now();
  do {
    body();
    ++r.reps;
    r.seconds = secondsSince(t0);
  } while (r.seconds < budgetSeconds || r.reps < minReps);
  std::cout << "  " << name << ": " << r.reps << " rep(s), "
            << r.secondsPerIter() << " s/iter, " << r.itersPerSec()
            << " iters/s\n";
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string outPath = "BENCH_throughput.json";
  std::string critpathOutPath = "BENCH_critpath.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      outPath = argv[++i];
    } else if (arg == "--critpath-out" && i + 1 < argc) {
      critpathOutPath = argv[++i];
    } else {
      std::cerr << "usage: perfbench [--smoke] [--out FILE]"
                   " [--critpath-out FILE]\n";
      return 2;
    }
  }
  const double budget = smoke ? 0.2 : 2.0;

  bench::header(smoke ? "perfbench (smoke)" : "perfbench");

  // ---- pinned inputs -------------------------------------------------------
  const trace::Trace paper = makePaperTrace();
  const apps::ScaleConfig scaleCfg = makeScaleConfig(smoke);
  const std::string scalePath =
      smoke ? "perfbench_scale_smoke.pvt" : "perfbench_scale.pvt";
  const apps::ScaleWriteResult written =
      apps::writeScaleTrace(scalePath, scaleCfg);
  std::cout << "  scale trace: " << written.ranks << " ranks, "
            << written.events << " events (skew tail "
            << scaleCfg.skewTailPerMille << " per mille x"
            << scaleCfg.skewEventsFactor << ")\n";

  std::vector<StageResult> stages;
  util::resetPerfCounters();

  // ---- stage 1: cold load --------------------------------------------------
  trace::Trace scale;
  stages.push_back(timeStage("cold_load", budget, 2, false, [&] {
    scale = trace::loadBinaryFile(scalePath);
  }));

  // ---- stage 2: full analyze of the skewed scale trace ---------------------
  util::ThreadPoolStats poolStats;
  stages.push_back(timeStage("analyze", budget, 1, true, [&] {
    analysis::PipelineOptions opts;
    opts.threads = 0;  // hardware concurrency, sharded even at 1 core
    opts.poolStats = &poolStats;
    const auto result = analysis::analyzeTrace(scale, opts);
    if (result.variation.processes.empty()) {
      std::abort();
    }
  }));
  std::cout << formatThreadPoolStats(poolStats);

  // ---- stage 3: lint of the paper trace ------------------------------------
  stages.push_back(timeStage("lint", budget, 2, true, [&] {
    const lint::LintReport report = lint::lintTrace(paper);
    if (report.findings.capacity() == static_cast<std::size_t>(-1)) {
      std::abort();  // defeat dead-code elimination
    }
  }));

  // ---- stage 4: warm engine re-query ---------------------------------------
  engine::AnalysisEngine eng{trace::Trace(paper)};
  (void)eng.analyze();  // populate the stage cache
  stages.push_back(timeStage("warm_query", budget, 2, true, [&] {
    const auto& result = eng.analyze();
    if (result.variation->processes.empty()) {
      std::abort();
    }
  }));

  // ---- stage 5: cross-rank dependency analysis, cold vs warm ---------------
  // Cold runs the full happens-before build + detectors each rep; warm
  // re-queries the engine's dep stage, which by the caching contract is a
  // pure cache hit (the fingerprint excludes execution options). The gap
  // between the two is the cache's value and is gated in CI
  // (BENCH_critpath.json).
  const StageResult critCold = timeStage("critpath_cold", budget, 2, true, [&] {
    const analysis::DepAnalysis a = analysis::analyzeDependencies(paper);
    if (a.processCount == 0) {
      std::abort();
    }
  });
  (void)eng.depAnalysis();  // populate the dep stage cache
  const std::uint64_t depHitsBefore = eng.cacheStats().hits;
  const StageResult critWarm = timeStage("critpath_warm", budget, 2, true, [&] {
    const auto a = eng.depAnalysis();
    if (a->processCount == 0) {
      std::abort();
    }
  });
  const std::uint64_t depHitsGained = eng.cacheStats().hits - depHitsBefore;
  // The untimed warmup rep hits too, hence >= rather than ==.
  const bool critWarmAllHits = depHitsGained >= critWarm.reps;
  const double critSpeedup =
      critWarm.secondsPerIter() > 0.0
          ? critCold.secondsPerIter() / critWarm.secondsPerIter()
          : 0.0;
  const bool critMeetsTarget = critWarmAllHits && critSpeedup > 1.0;
  std::cout << "  critpath warm re-query: " << critSpeedup
            << "x vs cold, " << depHitsGained << " cache hit(s) — "
            << (critMeetsTarget ? "MET" : "NOT MET") << '\n';
  stages.push_back(critCold);
  stages.push_back(critWarm);

  // ---- stage 6: SOS streaming replay ---------------------------------------
  const auto selection = analysis::selectDominantFunction(paper);
  const trace::FunctionId dominant = selection.dominant().function;
  stages.push_back(timeStage("streaming_sos", budget, 2, true, [&] {
    analysis::StreamingSos analyzer(paper, dominant);
    analysis::StreamingSos::replay(paper, analyzer);
    if (analyzer.segmentsCompleted() == 0) {
      std::abort();
    }
  }));

  // ---- global counter ------------------------------------------------------
  std::size_t totalIters = 0;
  double totalSeconds = 0.0;
  for (const StageResult& s : stages) {
    totalIters += s.reps;
    totalSeconds += s.seconds;
  }
  const double globalItersPerSec =
      totalSeconds > 0.0 ? static_cast<double>(totalIters) / totalSeconds
                         : 0.0;
  std::cout << "  global: " << totalIters << " iters in " << totalSeconds
            << " s = " << globalItersPerSec << " iters/s\n";

  // ---- BENCH_throughput.json ----------------------------------------------
  {
    std::ofstream out(outPath);
    util::JsonWriter j(out);
    j.beginObject();
    j.key("bench");
    j.value(std::string("perfbench"));
    j.key("mode");
    j.value(std::string(smoke ? "smoke" : "full"));
    j.key("config");
    j.beginObject();
    j.key("ranks");
    j.value(static_cast<std::uint64_t>(scaleCfg.ranks));
    j.key("iterations");
    j.value(static_cast<std::uint64_t>(scaleCfg.iterations));
    j.key("skew_tail_per_mille");
    j.value(static_cast<std::uint64_t>(scaleCfg.skewTailPerMille));
    j.key("skew_events_factor");
    j.value(static_cast<std::uint64_t>(scaleCfg.skewEventsFactor));
    j.key("scale_events");
    j.value(static_cast<std::uint64_t>(written.events));
    j.key("threads");
    j.value(static_cast<std::uint64_t>(
        util::ThreadPool::resolveThreadCount(0)));
    j.endObject();
    j.key("stages");
    j.beginArray();
    for (const StageResult& s : stages) {
      j.beginObject();
      j.key("name");
      j.value(s.name);
      j.key("reps");
      j.value(static_cast<std::uint64_t>(s.reps));
      j.key("seconds_per_iter");
      j.value(s.secondsPerIter());
      j.key("iters_per_sec");
      j.value(s.itersPerSec());
      j.endObject();
    }
    j.endArray();
    j.key("pool");
    j.beginObject();
    j.key("workers");
    j.value(static_cast<std::uint64_t>(poolStats.workers.size()));
    j.key("chunks");
    j.value(poolStats.totalChunks());
    j.key("stolen");
    j.value(poolStats.totalStolen());
    j.key("idle_wakeups");
    j.value(poolStats.totalIdleWakeups());
    j.endObject();
    // Empty unless built with -DPERFVAR_PERF_COUNTERS=ON.
    j.key("perf_counters");
    j.beginArray();
    for (const util::PerfCounterValue& c : util::collectPerfCounters()) {
      j.beginObject();
      j.key("name");
      j.value(c.name);
      j.key("value");
      j.value(c.value);
      j.endObject();
    }
    j.endArray();
    j.key("global");
    j.beginObject();
    j.key("total_iters");
    j.value(static_cast<std::uint64_t>(totalIters));
    j.key("total_seconds");
    j.value(totalSeconds);
    j.key("iters_per_sec");
    j.value(globalItersPerSec);
    j.endObject();
    j.endObject();
    out << '\n';
  }
  std::cout << "  wrote " << outPath << '\n';

  // ---- BENCH_critpath.json -------------------------------------------------
  {
    std::ofstream out(critpathOutPath);
    util::JsonWriter j(out);
    j.beginObject();
    j.key("bench");
    j.value(std::string("critpath"));
    j.key("mode");
    j.value(std::string(smoke ? "smoke" : "full"));
    j.key("cold_s");
    j.value(critCold.secondsPerIter());
    j.key("warm_s");
    j.value(critWarm.secondsPerIter());
    j.key("warm_reps");
    j.value(static_cast<std::uint64_t>(critWarm.reps));
    j.key("warm_cache_hits");
    j.value(depHitsGained);
    j.key("warm_all_hits");
    j.value(critWarmAllHits);
    j.key("speedup_warm_vs_cold");
    j.value(critSpeedup);
    j.key("meets_target");
    j.value(critMeetsTarget);
    j.endObject();
    out << '\n';
  }
  std::cout << "  wrote " << critpathOutPath << '\n';

  std::remove(scalePath.c_str());
  return 0;
}
