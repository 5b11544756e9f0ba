/// \file offline.cpp
/// The two offline workloads: one caller runs full reports back to back
/// (a closed loop), each on a freshly opened trace file.
///
/// offline-scale-skewed opens a scale trace with an event-dense rank tail
/// out-of-core, under a shard budget of half its decoded size, at nproc
/// threads: it exercises v2 decode, the shard LRU, the work-stealing
/// scheduler and per-rank replay. offline-paper-cosmo loads the paper's
/// COSMO-SPECS trace eagerly at one thread (trace_tool's default): no LRU
/// and no scheduler, so a change to either must not move it; its time
/// goes to the per-segment kernels.

#include <functional>
#include <string>

#include "apps/cosmo_specs.hpp"
#include "apps/scale_synthetic.hpp"
#include "chunks.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "trace/binary_io.hpp"
#include "trace/view.hpp"
#include "workloads.hpp"

namespace perfvar::bench {
namespace {

constexpr std::string_view kTrace = "input.pvt";
constexpr std::string_view kReference = "reference.txt";
constexpr std::string_view kBlamed = "reference-blamed.txt";
constexpr std::string_view kOutput = "output.txt";
/// Reports per nominal second of the timed phase (RunContext::count).
constexpr double kScaleReportsPerSecond = 5.0;
constexpr double kCosmoReportsPerSecond = 10.0;

apps::ScaleConfig scaleConfig(const RunContext& ctx) {
  apps::ScaleConfig cfg;
  cfg.ranks = ctx.smoke ? 200 : 5000;
  cfg.iterations = 5;
  cfg.skewTailPerMille = 20;
  cfg.skewEventsFactor = 256;
  cfg.seed = ctx.seed;
  return cfg;
}

/// Reference report (one thread, eager) plus, for traced runs, the
/// chunked input the layer probes stream.
void writeReference(const RunContext& ctx) {
  const trace::Trace eager = trace::loadBinaryFile(ctx.path(kTrace));
  const ReportOutput reference = runReport(eager, 1);
  writeFile(ctx.path(kReference), reference.text);
  writeFile(ctx.path(kBlamed), std::to_string(reference.slowestProcess));
  if (ctx.trace) {
    writeProbeChunks(ctx, eager);
  }
}

/// The timed phase: `count` times open, then report.
void runReports(const RunContext& ctx,
                const std::function<trace::TraceView()>& open,
                std::size_t threads, std::size_t count, Measurements& out) {
  runReport(open(), threads);  // untimed: page in code and file
  std::vector<double> setup;
  std::vector<double> reports;
  double busy = 0.0;
  std::string first;
  for (std::size_t i = 0; i < count; ++i) {
    ++out.attempted;
    try {
      auto start = Clock::now();
      const trace::TraceView view = inSpan("trace.open", open);
      const double opened = secondsSince(start);
      start = Clock::now();
      ReportOutput report =
          inSpan("report", [&] { return runReport(view, threads); });
      reports.push_back(secondsSince(start));
      setup.push_back(opened);
      busy += opened + reports.back();
      if (first.empty()) {
        first = std::move(report.text);
      } else if (report.text != first) {
        noteFailure(bench::mismatch(
            "report " + std::to_string(i) + " vs report 0", first, report.text));
        ++out.failed;
      }
    } catch (const std::exception& e) {
      noteFailure(e.what());
      ++out.failed;
    }
  }
  writeFile(ctx.path(kOutput), first);
  out.add("setup_s", quantile(setup, 0.5), "s", setup.size());
  addLatency(out, "report", reports, "s");
  out.add("reports_per_s", static_cast<double>(reports.size()) / busy, "1/s",
          reports.size());
}

/// The report must equal the reference byte for byte and name `rank`.
std::vector<std::string> checkReport(const RunContext& ctx,
                                     const std::string& rankName) {
  std::vector<std::string> problems;
  const std::string reference = readFile(ctx.path(kReference));
  const std::string output = readFile(ctx.path(kOutput));
  if (output != reference) {
    problems.push_back(mismatch("report vs one-thread eager reference",
                                reference, output));
  }
  if (reference.find(rankName + ' ') == std::string::npos) {
    problems.push_back("report does not name " + rankName);
  }
  return problems;
}

trace::ProcessId blamedRank(const RunContext& ctx) {
  return static_cast<trace::ProcessId>(std::stoul(readFile(ctx.path(kBlamed))));
}

// ---- offline-scale-skewed ---------------------------------------------------

std::function<trace::TraceView()> scaleOpen(const RunContext& ctx) {
  trace::TraceViewOptions options;
  options.shardBudgetBytes = halfDecodedBytes(ctx.path(kTrace));
  return [path = ctx.path(kTrace), options] {
    return trace::TraceView::openFile(path, options);
  };
}

void generateScale(const RunContext& ctx) {
  apps::writeScaleTrace(ctx.path(kTrace), scaleConfig(ctx));
  writeReference(ctx);
}

void runScale(const RunContext& ctx, Measurements& out) {
  runReports(ctx, scaleOpen(ctx), ctx.nproc, ctx.count(kScaleReportsPerSecond, 3),
             out);
}

void probeScale(const RunContext& ctx, Measurements& out) {
  const auto open = scaleOpen(ctx);
  ProbeInput input;
  input.tracePath = ctx.path(kTrace);
  input.open = open;
  input.view = open();
  input.threads = ctx.nproc;
  input.shardBudgetBytes = halfDecodedBytes(input.tracePath);
  input.stream = readChunkStream(ctx.path(kProbeChunks));
  input.segmentFunction = "compute";  // the scenario's dominant function
  runLayerProbes(ctx, input, out);
}

std::vector<std::string> checkScale(const RunContext& ctx) {
  const trace::ProcessId blamed = blamedRank(ctx);
  std::vector<std::string> problems =
      checkReport(ctx, apps::scaleProcessName(blamed));
  if (!apps::scaleRankIsCulprit(scaleConfig(ctx), blamed)) {
    problems.push_back("report blames rank " + std::to_string(blamed) +
                       ", which is not a planted culprit");
  }
  return problems;
}

// ---- offline-paper-cosmo ----------------------------------------------------

constexpr std::string_view kHottest = "hottest.txt";

std::function<trace::TraceView()> cosmoOpen(const RunContext& ctx) {
  return [path = ctx.path(kTrace)] {
    trace::BinaryReadOptions options;
    options.threads = 1;
    return trace::TraceView::owned(trace::loadBinaryFile(path, options));
  };
}

void generateCosmo(const RunContext& ctx) {
  const std::uint32_t hottest = writeCosmoTrace(ctx, ctx.path(kTrace));
  writeFile(ctx.path(kHottest), std::to_string(hottest));
  writeReference(ctx);
}

void runCosmo(const RunContext& ctx, Measurements& out) {
  runReports(ctx, cosmoOpen(ctx), 1, ctx.count(kCosmoReportsPerSecond, 3), out);
}

void probeCosmo(const RunContext& ctx, Measurements& out) {
  const auto open = cosmoOpen(ctx);
  ProbeInput input;
  input.tracePath = ctx.path(kTrace);
  input.open = open;
  input.view = open();
  input.threads = 1;
  input.shardBudgetBytes = halfDecodedBytes(input.tracePath);
  input.stream = readChunkStream(ctx.path(kProbeChunks));
  input.segmentFunction = "cosmo_specs_timestep";  // the dominant function
  runLayerProbes(ctx, input, out);
}

std::vector<std::string> checkCosmo(const RunContext& ctx) {
  const std::string hottest = readFile(ctx.path(kHottest));
  std::vector<std::string> problems = checkReport(ctx, "Rank " + hottest);
  if (std::to_string(blamedRank(ctx)) != hottest) {
    problems.push_back("report blames rank " +
                       std::to_string(blamedRank(ctx)) +
                       ", the scenario overloads rank " + hottest);
  }
  return problems;
}

}  // namespace

std::uint32_t writeCosmoTrace(const RunContext& ctx, const std::string& path) {
  apps::CosmoSpecsConfig cfg;
  cfg.gridX = 10;
  cfg.gridY = 10;
  cfg.timesteps = ctx.smoke ? 20 : 160;
  cfg.noiseSigma = 0.02;
  cfg.seed = ctx.seed;
  const apps::CosmoSpecsScenario scenario = apps::buildCosmoSpecs(cfg);
  trace::saveBinaryFile(sim::simulate(scenario.program, scenario.simOptions),
                        path);
  return scenario.hottestRank;
}

const Workload kOfflineScaleSkewed{
    "offline-scale-skewed", "report",   "s",        "reports_per_s",
    generateScale,          runScale,   probeScale, checkScale};
const Workload kOfflinePaperCosmo{
    "offline-paper-cosmo", "report",   "s",        "reports_per_s",
    generateCosmo,         runCosmo,   probeCosmo, checkCosmo};

}  // namespace perfvar::bench
