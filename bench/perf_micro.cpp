/// Library performance microbenchmarks (google-benchmark): throughput of
/// every pipeline stage, the trace substrate, the simulator and the
/// balancer. These quantify that the analysis is "lightweight" (paper
/// Section VIII) - a full dominant+SOS+variation pass costs a small
/// multiple of reading the trace.

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/overlay.hpp"
#include "engine/engine.hpp"
#include "lint/lint.hpp"
#include "analysis/patterns.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/streaming.hpp"
#include "apps/cosmo_specs.hpp"
#include "balance/fd4.hpp"
#include "balance/hilbert.hpp"
#include "balance/partition.hpp"
#include "profile/calltree.hpp"
#include "profile/profile.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "trace/binary_io.hpp"
#include "trace/builder.hpp"
#include "trace/replay.hpp"
#include "trace/text_io.hpp"
#include "vis/heatmap.hpp"
#include "vis/timeline.hpp"
#include "util/rng.hpp"

namespace {

using namespace perfvar;

/// Shared synthetic workload: `ranks` x `iters` iterative trace.
trace::Trace makeTrace(std::size_t ranks, std::size_t iters) {
  apps::CosmoSpecsConfig cfg;
  cfg.gridX = static_cast<std::uint32_t>(ranks >= 4 ? 4 : ranks);
  cfg.gridY = static_cast<std::uint32_t>(ranks / cfg.gridX);
  cfg.timesteps = iters;
  cfg.noiseSigma = 0.02;
  const auto scenario = apps::buildCosmoSpecs(cfg);
  return sim::simulate(scenario.program, scenario.simOptions);
}

const trace::Trace& sharedTrace() {
  static const trace::Trace tr = makeTrace(16, 50);
  return tr;
}

void BM_TraceBuild(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    trace::TraceBuilder b(1);
    const auto f = b.defineFunction("f");
    for (std::size_t i = 0; i < events / 2; ++i) {
      b.enter(0, 2 * i, f);
      b.leave(0, 2 * i + 1, f);
    }
    benchmark::DoNotOptimize(b.finish());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_TraceBuild)->Arg(1000)->Arg(100000);

void BM_BinaryWrite(benchmark::State& state) {
  const trace::Trace& tr = sharedTrace();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream os;
    trace::writeBinary(tr, os);
    bytes = os.str().size();
    benchmark::DoNotOptimize(os);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.counters["events"] = static_cast<double>(tr.eventCount());
}
BENCHMARK(BM_BinaryWrite);

void BM_BinaryRead(benchmark::State& state) {
  std::ostringstream os;
  trace::writeBinary(sharedTrace(), os);
  const std::string bytes = os.str();
  for (auto _ : state) {
    std::istringstream is(bytes);
    benchmark::DoNotOptimize(trace::readBinary(is));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_BinaryRead);

void BM_TextWrite(benchmark::State& state) {
  const trace::Trace& tr = sharedTrace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::toText(tr));
  }
}
BENCHMARK(BM_TextWrite);

void BM_Replay(benchmark::State& state) {
  const trace::Trace& tr = sharedTrace();
  for (auto _ : state) {
    std::size_t frames = 0;
    for (const auto& proc : tr.processes) {
      trace::ReplayVisitor v;
      v.onLeave = [&](const trace::Frame&) { ++frames; };
      trace::replayProcess(proc, v);
    }
    benchmark::DoNotOptimize(frames);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              sharedTrace().eventCount()));
}
BENCHMARK(BM_Replay);

void BM_FlatProfile(benchmark::State& state) {
  const trace::Trace& tr = sharedTrace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile::FlatProfile::build(tr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tr.eventCount()));
}
BENCHMARK(BM_FlatProfile);

void BM_CallTree(benchmark::State& state) {
  const trace::Trace& tr = sharedTrace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile::CallTree::buildMerged(tr));
  }
}
BENCHMARK(BM_CallTree);

void BM_DominantSelection(benchmark::State& state) {
  const trace::Trace& tr = sharedTrace();
  const auto profile = profile::FlatProfile::build(tr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::selectDominantFunction(tr, profile));
  }
}
BENCHMARK(BM_DominantSelection);

void BM_SosAnalysis(benchmark::State& state) {
  const trace::Trace& tr = sharedTrace();
  const auto selection = analysis::selectDominantFunction(tr);
  const auto f = selection.dominant().function;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyzeSos(tr, f));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tr.eventCount()));
}
BENCHMARK(BM_SosAnalysis);

void BM_VariationReport(benchmark::State& state) {
  const trace::Trace& tr = sharedTrace();
  const auto selection = analysis::selectDominantFunction(tr);
  const auto sos = analysis::analyzeSos(tr, selection.dominant().function);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyzeVariation(sos));
  }
}
BENCHMARK(BM_VariationReport);

void BM_FullPipeline(benchmark::State& state) {
  const trace::Trace tr = makeTrace(16, static_cast<std::size_t>(
                                            state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyzeTrace(tr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tr.eventCount()));
}
BENCHMARK(BM_FullPipeline)->Arg(20)->Arg(100);

/// 64-rank synthetic trace shared by the parallel-engine benches.
const trace::Trace& trace64() {
  static const trace::Trace tr = makeTrace(64, 30);
  return tr;
}

void BM_FullPipelineThreads(benchmark::State& state) {
  const trace::Trace& tr = trace64();
  analysis::PipelineOptions opts;
  opts.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyzeTrace(tr, opts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tr.eventCount()));
  state.counters["threads"] = static_cast<double>(
      util::ThreadPool::resolveThreadCount(opts.threads));
}
BENCHMARK(BM_FullPipelineThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

/// Serial-vs-parallel speedup of the full pipeline on the 64-rank trace,
/// recorded as counters (speedup = serial seconds / parallel seconds at
/// `threads` = the benchmark argument). On a multi-core host the 4-thread
/// speedup is expected to be >= 2x; on a single hardware thread it
/// degrades gracefully towards 1x (minus pool overhead).
void BM_PipelineSpeedup64(benchmark::State& state) {
  const trace::Trace& tr = trace64();
  analysis::PipelineOptions opts;
  opts.threads = static_cast<std::size_t>(state.range(0));
  using clock = std::chrono::steady_clock;
  double serialSec = 0.0;
  double parallelSec = 0.0;
  for (auto _ : state) {
    const auto t0 = clock::now();
    benchmark::DoNotOptimize(analysis::analyzeTrace(tr));
    const auto t1 = clock::now();
    benchmark::DoNotOptimize(analysis::analyzeTrace(tr, opts));
    const auto t2 = clock::now();
    serialSec += std::chrono::duration<double>(t1 - t0).count();
    parallelSec += std::chrono::duration<double>(t2 - t1).count();
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["serial_s"] = serialSec / n;
  state.counters["parallel_s"] = parallelSec / n;
  state.counters["speedup"] =
      parallelSec > 0.0 ? serialSec / parallelSec : 0.0;
}
BENCHMARK(BM_PipelineSpeedup64)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_SosAnalysisPooled(benchmark::State& state) {
  const trace::Trace& tr = trace64();
  const auto selection = analysis::selectDominantFunction(tr);
  const auto f = selection.dominant().function;
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::analyzeSos(tr, f, {}, &pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tr.eventCount()));
}
BENCHMARK(BM_SosAnalysisPooled)->Arg(1)->Arg(2)->Arg(4);

// ---- lint ------------------------------------------------------------------
//
// The lint engine advertises itself as cheap enough to run on every load
// (the engine's lint-on-load gate); these benches quantify that claim on
// the shared 64-rank trace. The Release bench CI job archives the numbers
// as BENCH_lint.json.

void BM_LintFullRegistry(benchmark::State& state) {
  const trace::Trace& tr = trace64();
  lint::LintOptions opts;
  opts.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lint::lintTrace(tr, opts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tr.eventCount()));
  state.counters["threads"] = static_cast<double>(
      util::ThreadPool::resolveThreadCount(opts.threads));
}
BENCHMARK(BM_LintFullRegistry)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

/// The validate() subset alone — the forwarder's cost relative to the
/// historical single-pass validator they replaced.
void BM_LintValidateSubset(benchmark::State& state) {
  const trace::Trace& tr = trace64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(lint::validateStructure(tr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tr.eventCount()));
}
BENCHMARK(BM_LintValidateSubset);

/// Serial-vs-threaded lint speedup on the 64-rank trace, recorded as
/// counters like BM_PipelineSpeedup64 (the bench CI job greps `speedup`).
void BM_LintSpeedup64(benchmark::State& state) {
  const trace::Trace& tr = trace64();
  lint::LintOptions opts;
  opts.threads = static_cast<std::size_t>(state.range(0));
  using clock = std::chrono::steady_clock;
  double serialSec = 0.0;
  double parallelSec = 0.0;
  for (auto _ : state) {
    const auto t0 = clock::now();
    benchmark::DoNotOptimize(lint::lintTrace(tr));
    const auto t1 = clock::now();
    benchmark::DoNotOptimize(lint::lintTrace(tr, opts));
    const auto t2 = clock::now();
    serialSec += std::chrono::duration<double>(t1 - t0).count();
    parallelSec += std::chrono::duration<double>(t2 - t1).count();
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["serial_s"] = serialSec / n;
  state.counters["parallel_s"] = parallelSec / n;
  state.counters["speedup"] =
      parallelSec > 0.0 ? serialSec / parallelSec : 0.0;
}
BENCHMARK(BM_LintSpeedup64)->Arg(4)->Unit(benchmark::kMillisecond);

// ---- analysis engine: cold vs warm cache ----------------------------------
//
// The same query through engine::AnalysisEngine, with the stage cache
// cleared every iteration (cold: every stage recomputed) and kept (warm:
// every stage a cache hit). The cold/warm gap is the cost the cache
// amortizes for interactive re-queries.

void BM_EngineColdAnalyze(benchmark::State& state) {
  engine::AnalysisEngine eng{trace::Trace(trace64())};
  for (auto _ : state) {
    state.PauseTiming();
    eng.clearCache();
    state.ResumeTiming();
    benchmark::DoNotOptimize(eng.analyze());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(eng.trace().eventCount()));
}
BENCHMARK(BM_EngineColdAnalyze)->Unit(benchmark::kMillisecond);

void BM_EngineWarmHit(benchmark::State& state) {
  engine::AnalysisEngine eng{trace::Trace(trace64())};
  benchmark::DoNotOptimize(eng.analyze());  // populate every stage
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.analyze());
  }
  const engine::CacheStats stats = eng.cacheStats();
  state.counters["hits"] = static_cast<double>(stats.hits);
  state.counters["misses"] = static_cast<double>(stats.misses);
}
BENCHMARK(BM_EngineWarmHit);

/// Warm drilldown: re-query with only VariationOptions changed. The
/// profile, dominant ranking and SOS matrix stay cached; only the cheap
/// variation stage recomputes. Alternating thresholds keeps both variants
/// resident so every iteration after the first two is a pure hit on the
/// upstream stages.
void BM_EngineWarmDrilldown(benchmark::State& state) {
  engine::AnalysisEngine eng{trace::Trace(trace64())};
  analysis::PipelineOptions a;
  analysis::PipelineOptions b;
  b.variation.outlierThreshold = a.variation.outlierThreshold + 0.5;
  benchmark::DoNotOptimize(eng.analyze(a));  // warm the shared stages
  bool flip = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.analyze(flip ? b : a));
    flip = !flip;
  }
  const engine::CacheStats stats = eng.cacheStats();
  state.counters["hits"] = static_cast<double>(stats.hits);
  state.counters["misses"] = static_cast<double>(stats.misses);
}
BENCHMARK(BM_EngineWarmDrilldown);

// ---- trace I/O: format v1 vs v2, mmap load, parallel decode ---------------
//
// The BM_Io* family quantifies the cold-load path the paper's workflow
// starts with: the legacy v1 stream codec (per-byte checksum through
// virtual istream calls, serial) against the block-based v2 codec
// (block-wise buffer checksums, zero-copy mmap load, per-rank parallel
// decode). CI runs these on the 64-rank trace with
//   perf_micro --benchmark_filter=BM_Io
//              --benchmark_out=BENCH_io.json --benchmark_out_format=json
// and archives BENCH_io.json; BM_IoLoadSpeedup64's `speedup` counter is
// the headline v1-serial vs v2-mmap-threaded cold-load ratio.

/// 64-rank trace at the paper's event scale (hundreds of thousands of
/// events), so the fixed costs (pool spin-up, header parse) are measured
/// against a realistic decode volume.
const trace::Trace& ioTrace() {
  static const trace::Trace tr = makeTrace(64, 200);
  return tr;
}

/// 64-rank trace written once per process in both formats.
struct IoFixture {
  std::string v1Path = "perf_micro_io_v1.pvt";
  std::string v2Path = "perf_micro_io_v2.pvt";
  std::size_t v1Bytes = 0;
  std::size_t v2Bytes = 0;
};

const IoFixture& ioFixture() {
  static const IoFixture fixture = [] {
    IoFixture f;
    trace::BinaryWriteOptions v1;
    v1.version = trace::kBinaryFormatV1;
    trace::saveBinaryFile(ioTrace(), f.v1Path, v1);
    trace::saveBinaryFile(ioTrace(), f.v2Path);  // v2 default
    const auto size = [](const std::string& path) {
      std::ifstream in(path, std::ios::binary | std::ios::ate);
      return static_cast<std::size_t>(in.tellg());
    };
    f.v1Bytes = size(f.v1Path);
    f.v2Bytes = size(f.v2Path);
    return f;
  }();
  return fixture;
}

std::string binaryImage(std::uint32_t version) {
  std::ostringstream os;
  trace::BinaryWriteOptions opts;
  opts.version = version;
  trace::writeBinary(trace64(), os, opts);
  return os.str();
}

void BM_IoEncodeV1(benchmark::State& state) {
  const trace::Trace& tr = trace64();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream os;
    trace::BinaryWriteOptions opts;
    opts.version = trace::kBinaryFormatV1;
    trace::writeBinary(tr, os, opts);
    bytes = os.str().size();
    benchmark::DoNotOptimize(os);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_IoEncodeV1);

void BM_IoEncodeV2(benchmark::State& state) {
  const trace::Trace& tr = trace64();
  trace::BinaryWriteOptions opts;
  opts.threads = static_cast<std::size_t>(state.range(0));
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream os;
    trace::writeBinary(tr, os, opts);
    bytes = os.str().size();
    benchmark::DoNotOptimize(os);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_IoEncodeV2)->Arg(1)->Arg(8);

void BM_IoDecodeV1(benchmark::State& state) {
  const std::string bytes = binaryImage(trace::kBinaryFormatV1);
  for (auto _ : state) {
    std::istringstream is(bytes);
    benchmark::DoNotOptimize(trace::readBinary(is));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_IoDecodeV1)->Unit(benchmark::kMillisecond);

void BM_IoDecodeV2(benchmark::State& state) {
  const std::string bytes = binaryImage(trace::kBinaryFormatV2);
  trace::BinaryReadOptions opts;
  opts.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trace::readBinaryBuffer(bytes.data(), bytes.size(), opts));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_IoDecodeV2)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_IoColdLoadV1(benchmark::State& state) {
  const IoFixture& f = ioFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::loadBinaryFile(f.v1Path));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.v1Bytes));
}
BENCHMARK(BM_IoColdLoadV1)->Unit(benchmark::kMillisecond);

void BM_IoColdLoadV2(benchmark::State& state) {
  const IoFixture& f = ioFixture();
  trace::BinaryReadOptions opts;
  opts.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::loadBinaryFile(f.v2Path, opts));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.v2Bytes));
}
BENCHMARK(BM_IoColdLoadV2)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Headline cold-load comparison on the 64-rank trace: v1 serial stream
/// load vs v2 mmap + parallel decode (hardware threads). The `speedup`
/// counter is the acceptance number recorded in BENCH_io.json; the size
/// counters document that v2 is also the smaller file.
void BM_IoLoadSpeedup64(benchmark::State& state) {
  const IoFixture& f = ioFixture();
  trace::BinaryReadOptions v2opts;
  v2opts.threads = 0;  // hardware concurrency
  using clock = std::chrono::steady_clock;
  double v1Sec = 0.0;
  double v2Sec = 0.0;
  for (auto _ : state) {
    const auto t0 = clock::now();
    benchmark::DoNotOptimize(trace::loadBinaryFile(f.v1Path));
    const auto t1 = clock::now();
    benchmark::DoNotOptimize(trace::loadBinaryFile(f.v2Path, v2opts));
    const auto t2 = clock::now();
    v1Sec += std::chrono::duration<double>(t1 - t0).count();
    v2Sec += std::chrono::duration<double>(t2 - t1).count();
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["v1_serial_s"] = v1Sec / n;
  state.counters["v2_mmap_threads_s"] = v2Sec / n;
  state.counters["speedup"] = v2Sec > 0.0 ? v1Sec / v2Sec : 0.0;
  state.counters["v1_bytes"] = static_cast<double>(f.v1Bytes);
  state.counters["v2_bytes"] = static_cast<double>(f.v2Bytes);
}
BENCHMARK(BM_IoLoadSpeedup64)->Unit(benchmark::kMillisecond);

void BM_OverlaySample(benchmark::State& state) {
  const trace::Trace& tr = sharedTrace();
  const auto selection = analysis::selectDominantFunction(tr);
  const auto sos = analysis::analyzeSos(tr, selection.dominant().function);
  const auto overlay = analysis::MetricOverlay::build(sos);
  for (auto _ : state) {
    benchmark::DoNotOptimize(overlay.sampleGrid(900));
  }
}
BENCHMARK(BM_OverlaySample);

void BM_HeatmapRender(benchmark::State& state) {
  const trace::Trace& tr = sharedTrace();
  const auto selection = analysis::selectDominantFunction(tr);
  const auto sos = analysis::analyzeSos(tr, selection.dominant().function);
  const auto matrix = sos.sosMatrixSeconds();
  vis::HeatmapOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vis::renderHeatmapImage(matrix, opts));
  }
}
BENCHMARK(BM_HeatmapRender);

void BM_TimelineBins(benchmark::State& state) {
  const trace::Trace& tr = sharedTrace();
  vis::TimelineOptions opts;
  opts.bins = 900;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vis::timelineBins(tr, opts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tr.eventCount()));
}
BENCHMARK(BM_TimelineBins);

void BM_HilbertIndex(benchmark::State& state) {
  const balance::HilbertCurve curve(10);
  std::uint64_t acc = 0;
  std::uint32_t x = 1;
  for (auto _ : state) {
    x = (x * 2654435761u) % curve.side();
    acc += curve.toIndex(x, (x * 7) % curve.side());
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_HilbertIndex);

void BM_PartitionOptimal(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> weights(static_cast<std::size_t>(state.range(0)));
  for (auto& w : weights) {
    w = rng.uniform(0.1, 10.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(balance::partitionOptimal(weights, 64));
  }
}
BENCHMARK(BM_PartitionOptimal)->Arg(1600)->Arg(16384);

void BM_Fd4Update(benchmark::State& state) {
  balance::Fd4Balancer balancer(40, 40, 200);
  Rng rng(6);
  std::vector<double> weights(1600);
  for (auto _ : state) {
    for (auto& w : weights) {
      w = rng.uniform(0.1, 5.0);
    }
    benchmark::DoNotOptimize(balancer.update(weights));
  }
}
BENCHMARK(BM_Fd4Update);

void BM_StreamingSos(benchmark::State& state) {
  const trace::Trace& tr = sharedTrace();
  const auto selection = analysis::selectDominantFunction(tr);
  const auto f = selection.dominant().function;
  for (auto _ : state) {
    analysis::StreamingSos analyzer(tr, f);
    analysis::StreamingSos::replay(tr, analyzer);
    benchmark::DoNotOptimize(analyzer.segmentsCompleted());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tr.eventCount()));
}
BENCHMARK(BM_StreamingSos);

void BM_WaitStateSearch(benchmark::State& state) {
  const trace::Trace& tr = sharedTrace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::findWaitStates(tr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tr.eventCount()));
}
BENCHMARK(BM_WaitStateSearch);

void BM_WindowSos(benchmark::State& state) {
  const trace::Trace& tr = sharedTrace();
  const trace::Timestamp window =
      (tr.endTime() - tr.startTime()) / 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyzeSosWindows(tr, window));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tr.eventCount()));
}
BENCHMARK(BM_WindowSos);

// ---- analysis server: round-trip latency and append throughput ------------
//
// The BM_Serve* family measures `trace_tool serve` end to end, minus the
// kernel socket hop variability: an in-process Server serving a Client
// over a socketpair, exactly the transport the daemon uses. Cold = load
// from disk + first analysis; warm = repeated analysis answered from the
// resident engine's stage cache (the interactive re-query latency); the
// append bench is the streaming-ingestion byte throughput. CI runs
//   perf_micro --benchmark_filter=BM_Serve
//              --benchmark_out=BENCH_serve.json --benchmark_out_format=json
// and archives BENCH_serve.json.

server::Client serveClient(server::Server& srv) {
  auto [serverEnd, clientEnd] = util::socketPair();
  srv.serveConnection(std::move(serverEnd));
  return server::Client{std::move(clientEnd)};
}

void BM_ServeColdQuery(benchmark::State& state) {
  const IoFixture& f = ioFixture();
  server::Server srv;
  server::Client client = serveClient(srv);
  for (auto _ : state) {
    if (!client.load("cold", f.v2Path).ok() ||
        client.analyze("cold").type != server::FrameType::Data) {
      state.SkipWithError("cold load/analyze failed");
      break;
    }
    state.PauseTiming();
    client.evict("cold");
    state.ResumeTiming();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.v2Bytes));
}
BENCHMARK(BM_ServeColdQuery)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_ServeWarmQuery(benchmark::State& state) {
  const IoFixture& f = ioFixture();
  server::Server srv;
  server::Client client = serveClient(srv);
  if (!client.load("warm", f.v2Path).ok() || !client.analyze("warm").ok()) {
    state.SkipWithError("warm-up load/analyze failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.analyze("warm"));
  }
}
BENCHMARK(BM_ServeWarmQuery)->UseRealTime()->Unit(benchmark::kMicrosecond);

void BM_ServeAppend(benchmark::State& state) {
  const std::string image = binaryImage(trace::kBinaryFormatV2);
  server::Server srv;
  server::Client client = serveClient(srv);
  const auto selection = analysis::selectDominantFunction(trace64());
  const std::string segmentFn =
      trace64().functions.at(selection.dominant().function).name;
  for (auto _ : state) {
    state.PauseTiming();
    client.evict("stream");
    client.open("stream", segmentFn);
    state.ResumeTiming();
    if (!client.append("stream", image).ok()) {
      state.SkipWithError("append failed");
      break;
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(image.size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace64().eventCount()));
}
BENCHMARK(BM_ServeAppend)->UseRealTime()->Unit(benchmark::kMillisecond);

// Same stream with the write-ahead journal on: the BM_ServeAppend delta
// is the durability tax on ingestion throughput (no fsync — the default
// `--journal-dir` configuration).
void BM_ServeAppendJournal(benchmark::State& state) {
  const std::string image = binaryImage(trace::kBinaryFormatV2);
  const std::string journalDir = "perf_micro_journal.d";
  server::ServerOptions options;
  options.journalDir = journalDir;
  server::Server srv(options);
  server::Client client = serveClient(srv);
  const auto selection = analysis::selectDominantFunction(trace64());
  const std::string segmentFn =
      trace64().functions.at(selection.dominant().function).name;
  for (auto _ : state) {
    state.PauseTiming();
    client.evict("stream");
    client.open("stream", segmentFn);
    state.ResumeTiming();
    if (!client.append("stream", image).ok()) {
      state.SkipWithError("append failed");
      break;
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(image.size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace64().eventCount()));
  std::error_code ec;
  std::filesystem::remove_all(journalDir, ec);
}
BENCHMARK(BM_ServeAppendJournal)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_Simulator(benchmark::State& state) {
  apps::CosmoSpecsConfig cfg;
  cfg.gridX = 8;
  cfg.gridY = 8;
  cfg.timesteps = 20;
  const auto scenario = apps::buildCosmoSpecs(cfg);
  std::size_t events = 0;
  for (auto _ : state) {
    sim::SimReport report;
    benchmark::DoNotOptimize(
        sim::simulate(scenario.program, scenario.simOptions, &report));
    events = report.events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_Simulator);

}  // namespace

BENCHMARK_MAIN();
