#include "probes.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "analysis/depgraph.hpp"
#include "analysis/export.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/streaming.hpp"
#include "counters.hpp"
#include "engine/engine.hpp"
#include "lint/lint.hpp"
#include "report.hpp"
#include "server/journal.hpp"
#include "server/protocol.hpp"
#include "spans.hpp"
#include "trace/binary_io.hpp"
#include "trace/stats.hpp"
#include "vis/heatmap.hpp"

namespace perfvar::bench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Wall time of `body` under a span called `name`.
template <typename F>
double timed(std::string_view name, F&& body) {
  const auto start = Clock::now();
  {
    Span span(name);
    body();
  }
  return secondsSince(start);
}

/// Median of `reps` timed runs of `body`.
template <typename F>
double medianOf(std::string_view name, std::size_t reps, F&& body) {
  std::vector<double> seconds;
  for (std::size_t i = 0; i < reps; ++i) {
    seconds.push_back(timed(name, body));
  }
  return quantile(std::move(seconds), 0.5);
}

double mean(const std::vector<double>& v, std::size_t from, std::size_t to) {
  return std::accumulate(v.begin() + static_cast<std::ptrdiff_t>(from),
                         v.begin() + static_cast<std::ptrdiff_t>(to), 0.0) /
         static_cast<double>(to - from);
}

/// trace layer: open, pin pass and shard cache of a lazy view.
void probeTraceView(const ProbeInput& in, std::size_t reps,
                    Measurements& out) {
  out.add("trace.open_s", medianOf("trace.open", reps, in.open), "s", reps);

  trace::TraceViewOptions lazy;
  lazy.shardBudgetBytes = in.shardBudgetBytes;
  std::vector<double> pins;
  for (std::size_t i = 0; i < reps; ++i) {
    const trace::TraceView fresh = trace::TraceView::openFile(in.tracePath, lazy);
    pins.push_back(timed("trace.pin_pass", [&] {
      for (trace::ProcessId p = 0; p < fresh.processCount(); ++p) {
        fresh.rank(p);
      }
    }));
  }
  out.add("trace.pin_pass_s", quantile(pins, 0.5), "s", reps);

  const trace::TraceView fresh = trace::TraceView::openFile(in.tracePath, lazy);
  {
    Span span("report");
    runReport(fresh, in.threads);
  }
  const ShardCounters shards = shardCounters(fresh);
  out.add("trace.shard_decodes", static_cast<double>(shards.decodes), "count");
  out.add("trace.shard_hit_ratio",
          static_cast<double>(shards.hits) /
              static_cast<double>(std::max<std::uint64_t>(
                  1, shards.hits + shards.decodes)),
          "ratio");
  out.add("trace.peak_resident_mib",
          static_cast<double>(shards.peakResidentBytes) / kMiB, "MiB");
}

/// trace + analysis layers on the chunk stream: decode, append onto a
/// benchmark-owned trace, and the StreamingSos feed the server runs.
void probeChunks(const ProbeInput& in, Measurements& out) {
  std::vector<double> decode;
  std::vector<double> append;
  std::vector<double> feed;
  trace::Trace live;
  std::unique_ptr<analysis::StreamingSos> sos;
  std::size_t alerts = 0;
  for (const std::string& image : in.stream.images) {
    trace::Trace chunk;
    decode.push_back(timed("trace.chunk_decode", [&] {
      chunk = trace::readBinaryBuffer(image.data(), image.size());
    }));
    append.push_back(timed("trace.chunk_append", [&] {
      trace::appendBinaryBuffer(live, image.data(), image.size());
    }));
    if (!sos) {
      const auto fn = live.functions.find(in.segmentFunction);
      if (!fn) {
        throw std::runtime_error("segment function '" + in.segmentFunction +
                                 "' is not in the input");
      }
      sos = std::make_unique<analysis::StreamingSos>(live, *fn);
      sos->setAlertCallback(
          [&alerts](const analysis::StreamingAlert&) { ++alerts; });
    }
    feed.push_back(timed("analysis.streaming_feed", [&] { sos->feed(chunk); }));
  }
  const std::size_t n = feed.size();
  const std::size_t tenth = std::max<std::size_t>(1, n / 10);
  out.add("trace.chunk_decode_ms", quantile(decode, 0.5) * 1e3, "ms", n);
  out.add("trace.chunk_append_ms", quantile(append, 0.5) * 1e3, "ms", n);
  out.add("analysis.streaming_feed_ms", quantile(feed, 0.5) * 1e3, "ms", n);
  out.add("analysis.streaming_feed_growth",
          mean(feed, n - tenth, n) / mean(feed, 0, tenth), "ratio", n);
}

/// profile + analysis layers: the serial stages, the pipeline, the
/// dependency analyses and the renderers.
void probeAnalysis(const ProbeInput& in, std::size_t reps,
                   Measurements& out) {
  const trace::TraceView& view = in.view;
  std::optional<profile::FlatProfile> profile;
  const double profileS = medianOf("profile.build", reps, [&] {
    profile.emplace(profile::FlatProfile::build(view));
  });
  analysis::DominantSelection selection;
  const double dominantS = medianOf("analysis.dominant", reps, [&] {
    selection = analysis::selectDominantFunction(view, *profile);
  });
  std::optional<analysis::SosResult> sos;
  const double sosS = medianOf("analysis.sos", reps, [&] {
    sos.emplace(analysis::analyzeSos(view, selection.dominant().function));
  });
  const double variationS = medianOf("analysis.variation", reps, [&] {
    analysis::analyzeVariation(*sos);
  });
  analysis::PipelineOptions pipelineOptions;
  pipelineOptions.threads = in.threads;
  std::optional<analysis::AnalysisResult> result;
  const double pipelineS = medianOf("analysis.pipeline", reps, [&] {
    result.emplace(analysis::analyzeTrace(view, pipelineOptions));
  });
  out.add("profile.build_s", profileS, "s", reps);
  out.add("analysis.dominant_s", dominantS, "s", reps);
  out.add("analysis.sos_s", sosS, "s", reps);
  out.add("analysis.variation_s", variationS, "s", reps);
  out.add("analysis.pipeline_s", pipelineS, "s", reps);
  out.add("analysis.pipeline_speedup",
          (profileS + dominantS + sosS + variationS) / pipelineS, "ratio",
          reps);

  analysis::DepGraphOptions graphOptions;
  graphOptions.threads = in.threads;
  analysis::DepGraph graph;
  out.add("analysis.depgraph_build_s",
          medianOf("analysis.depgraph_build", reps,
                   [&] { graph = analysis::buildDepGraph(view, graphOptions); }),
          "s", reps);
  analysis::CriticalPathResult path;
  out.add("analysis.critical_path_s",
          medianOf("analysis.critical_path", reps,
                   [&] { path = analysis::extractCriticalPath(graph); }),
          "s", reps);
  out.add("analysis.serialization_s",
          medianOf("analysis.serialization", reps,
                   [&] { analysis::detectSerialization(graph, path); }),
          "s", reps);
  out.add("analysis.idle_waves_s",
          medianOf("analysis.idle_waves", reps,
                   [&] { analysis::detectIdleWaves(graph); }),
          "s", reps);
  out.add("analysis.depgraph_nodes", static_cast<double>(graph.nodes.size()),
          "count");

  const auto exportS = [&](std::string_view name,
                           analysis::ExportFormat format) {
    return medianOf(name, reps, [&] {
      analysis::exportReportString(view, *result, format);
    });
  };
  out.add("analysis.export_text_s",
          exportS("analysis.export_text", analysis::ExportFormat::Text), "s",
          reps);
  out.add("analysis.export_json_s",
          exportS("analysis.export_json", analysis::ExportFormat::Json), "s",
          reps);
  out.add("analysis.export_csv_s",
          exportS("analysis.export_csv", analysis::ExportFormat::Csv), "s",
          reps);
  analysis::DepAnalysisOptions depOptions;
  depOptions.threads = in.threads;
  const analysis::DepAnalysis deps =
      analysis::analyzeDependencies(view, depOptions);
  out.add("analysis.dep_format_s",
          medianOf("analysis.dep_format", reps,
                   [&] { analysis::formatDepAnalysis(view, deps); }),
          "s", reps);
  const vis::Matrix matrix = result->sos->sosMatrixSeconds();
  out.add("vis.heatmap_svg_s", medianOf("vis.heatmap_svg", reps, [&] {
            vis::renderHeatmapSvg(matrix, vis::HeatmapOptions{}).finalize();
          }),
          "s", reps);
}

/// lint layer: the whole rule set, each builtin rule alone, the renderer.
void probeLint(const ProbeInput& in, std::size_t reps, Measurements& out) {
  lint::LintOptions options;
  options.threads = in.threads;
  lint::LintReport report;
  out.add("lint.total_s", medianOf("lint.total", reps, [&] {
            report = lint::lintTrace(in.view, options);
          }),
          "s", reps);
  out.add("lint.findings", static_cast<double>(report.findings.size()),
          "count");
  for (const auto& rule : lint::RuleRegistry::builtin().rules()) {
    lint::LintOptions only = options;
    only.onlyRules = {std::string(rule->id())};
    const std::string name = "lint.rule." + std::string(rule->id());
    out.add(name + "_s",
            medianOf(name, reps, [&] { lint::lintTrace(in.view, only); }),
            "s", reps);
  }
  out.add("lint.format_s", medianOf("lint.format", reps, [&] {
            lint::formatLintReport(report);
          }),
          "s", reps);
}

/// engine layer: a fresh engine's first query, a cache hit, and a miss
/// of the variation stage alone (new threshold, cached SOS).
void probeEngine(const ProbeInput& in, std::size_t reps, Measurements& out) {
  engine::EngineOptions options;
  options.threads = in.threads;
  analysis::PipelineOptions query;
  std::vector<double> cold;
  for (std::size_t i = 0; i < reps; ++i) {
    engine::AnalysisEngine fresh(in.view, options);
    cold.push_back(timed("engine.cold", [&] { fresh.analyze(query); }));
  }
  engine::AnalysisEngine warm(in.view, options);
  warm.analyze(query);
  const double hit =
      medianOf("engine.hit", reps, [&] { warm.analyze(query); });
  const double miss = medianOf("engine.miss", reps, [&] {
    query.variation.outlierThreshold += 0.125;
    warm.analyze(query);
  });
  out.add("engine.cold_s", quantile(cold, 0.5), "s", reps);
  out.add("engine.hit_ms", hit * 1e3, "ms", reps);
  out.add("engine.miss_ms", miss * 1e3, "ms", reps);
}

/// server layer: the producer's Append frames through TraceService::handle
/// with the serve workload's options, then the journal they left.
void probeServer(const RunContext& ctx, const ProbeInput& in,
                 std::size_t reps, Measurements& out) {
  server::ServerOptions options;
  options.journalDir = ctx.path("probe-journal");
  options.reorderWindowBytes = reorderWindowBytes(in.stream);
  const ServiceReplay replay =
      replayIntoService(options, in.stream, in.segmentFunction);
  out.add("server.handle_append_ms", quantile(replay.handleSeconds, 0.5) * 1e3,
          "ms", replay.handleSeconds.size());
  out.add("server.window_flushed_chunks",
          static_cast<double>(replay.flushedChunks), "count");
  out.add("server.journal_mib",
          static_cast<double>(std::filesystem::file_size(replay.journalPath)) /
              kMiB,
          "MiB");
  out.add("server.journal_scan_s", medianOf("server.journal_scan", reps, [&] {
            server::scanJournal(replay.journalPath);
          }),
          "s", reps);
  std::filesystem::remove_all(options.journalDir);
}

}  // namespace

void runLayerProbes(const RunContext& ctx, const ProbeInput& input,
                    Measurements& out) {
  const std::size_t reps = ctx.smoke ? 1 : 3;
  probeTraceView(input, reps, out);
  probeChunks(input, out);
  probeAnalysis(input, reps, out);
  probeLint(input, reps, out);
  probeEngine(input, reps, out);
  probeServer(ctx, input, reps, out);
}

void writeProbeChunks(const RunContext& ctx, const trace::Trace& input) {
  writeChunkStream(ctx.path(kProbeChunks), makeChunkStream(input, 40, nullptr));
}

std::size_t halfDecodedBytes(const std::string& tracePath) {
  return trace::approxMemoryBytes(trace::TraceView::openFile(tracePath)) / 2;
}

ServiceReplay replayIntoService(const server::ServerOptions& options,
                                const ChunkStream& stream,
                                const std::string& segmentFunction) {
  const auto frame = [](server::FrameType type, std::string payload) {
    return util::Frame{static_cast<std::uint8_t>(type), std::move(payload)};
  };
  const auto require = [](const std::vector<util::Frame>& response,
                          server::FrameType type) {
    if (response.empty() ||
        response.back().type != static_cast<std::uint8_t>(type)) {
      throw std::runtime_error(
          "unexpected server response: " +
          (response.empty() ? std::string("(none)") : response.back().payload));
    }
    return response.back().payload;
  };

  const std::string name = "replay";
  ServiceReplay replay;
  server::TraceService service(options);
  const auto session = service.openSession(std::make_shared<server::Sender>(-1));
  require(service.handle(session, frame(server::FrameType::Open,
                                        name + ' ' + segmentFunction)),
          server::FrameType::Ok);
  for (const std::size_t index : stream.sendOrder) {
    const util::Frame request =
        frame(server::FrameType::Append,
              server::encodeAppendPayload(name, stream.images[index]));
    std::vector<util::Frame> response;
    replay.handleSeconds.push_back(timed("server.handle_append", [&] {
      response = service.handle(session, request);
    }));
    replay.flushedChunks +=
        numberAfter(require(response, server::FrameType::Ok), "flushed ");
  }
  require(service.handle(session, frame(server::FrameType::Analyze, name)),
          server::FrameType::Data);
  service.closeSession(session);
  if (!options.journalDir.empty()) {
    replay.journalPath =
        options.journalDir + "/" + server::journalFileName(name);
  }
  return replay;
}

}  // namespace perfvar::bench
