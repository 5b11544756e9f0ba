/// \file serve.cpp
/// serve-ingest: an in-process server over socket pairs, with a journal
/// and a reorder window of four times the largest chunk. Two producers
/// each stream their own live trace, chunk by chunk, in a locally
/// shuffled order; one subscriber receives the alerts. Each stream ends
/// with a final `analyze`; then the server is destroyed and rebuilt from
/// its journals.
///
/// A producer waits for each append's Ok (the journal-ack contract), so
/// the loop is closed. The per-append cost grows with the stream's
/// history, so a round is fixed work and the timed phase runs a fixed
/// number of whole rounds.

#include <sys/socket.h>
#include <sys/time.h>

#include <array>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <map>
#include <sstream>
#include <thread>

#include "analysis/pipeline.hpp"
#include "analysis/streaming.hpp"
#include "apps/scale_synthetic.hpp"
#include "counters.hpp"
#include "probes.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "spans.hpp"
#include "trace/binary_io.hpp"
#include "trace/filter.hpp"
#include "util/framing.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfvar::bench {
namespace {

constexpr std::size_t kProducers = 2;
constexpr std::string_view kOutputs = "outputs.txt";
/// The scale scenario's dominant function: one segment per iteration.
constexpr std::string_view kSegmentFunction = "compute";

/// Rounds per nominal second of the timed phase (RunContext::count); each
/// round gives one setup_s sample.
constexpr double kRoundsPerSecond = 0.3;

/// A recovery replays both journals on one thread and takes about twice
/// as long as the stream phase. At 200 iterations in 200 chunks one
/// recovery alone took 21 s (4-CPU x86-64 host), more than a whole run may
/// take, so each stream is 64 iterations in 64 chunks: a round then takes
/// about 3 s and a run holds several rounds.
apps::ScaleConfig streamConfig(const RunContext& ctx, std::size_t producer) {
  apps::ScaleConfig cfg;
  cfg.ranks = ctx.smoke ? 24 : 256;
  cfg.iterations = ctx.smoke ? 40 : 64;
  cfg.hiccupPerMille = 40;
  cfg.seed = ctx.seed + producer;
  return cfg;
}

std::size_t chunkCount(const RunContext& ctx) { return ctx.smoke ? 20 : 64; }

std::string streamName(std::size_t producer) {
  return "stream" + std::to_string(producer);
}

std::string fileOf(std::size_t producer, std::string_view suffix) {
  return streamName(producer) + std::string(suffix);
}

std::uint64_t digest(const std::string& text) {
  return util::Hasher{}.str(text).digest();
}

/// Parent, per producer: the trace, its chunk stream, the reference
/// report, and the alert file: StreamingSos::replay's alert count, then
/// per alert of an in-order chunk feed the chunk that closed its segment.
void generateStream(const RunContext& ctx, std::size_t producer) {
  const trace::Trace live = apps::buildScaleTrace(streamConfig(ctx, producer));
  trace::saveBinaryFile(live, ctx.path(fileOf(producer, ".pvt")));
  Rng shuffle(ctx.seed * kProducers + producer);
  writeChunkStream(ctx.path(fileOf(producer, ".chunks")),
                   makeChunkStream(live, chunkCount(ctx), &shuffle));
  const analysis::PipelineOptions options;
  writeFile(
      ctx.path(fileOf(producer, ".reference")),
      analysis::formatAnalysis(live, analysis::analyzeTrace(live, options)));

  const trace::FunctionId fn =
      live.functions.find(std::string(kSegmentFunction)).value();
  std::size_t replayed = 0;
  analysis::StreamingSos replay(live, fn);
  replay.setAlertCallback(
      [&replayed](const analysis::StreamingAlert&) { ++replayed; });
  analysis::StreamingSos::replay(live, replay);

  std::string lines;
  std::size_t chunk = 0;
  analysis::StreamingSos inOrder(live, fn);
  inOrder.setAlertCallback([&](const analysis::StreamingAlert& alert) {
    lines += std::to_string(alert.segment.segment.process) + ' ' +
             std::to_string(alert.segment.segment.index) + ' ' +
             std::to_string(chunk) + '\n';
  });
  for (const trace::Trace& window : trace::splitByTime(live, chunkCount(ctx))) {
    inOrder.feed(window);
    ++chunk;
  }
  writeFile(ctx.path(fileOf(producer, ".alerts")),
            std::to_string(replayed) + '\n' + lines);
}

void generateServe(const RunContext& ctx) {
  std::vector<std::thread> threads;
  std::array<std::exception_ptr, kProducers> errors;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      try {
        generateStream(ctx, p);
      } catch (...) {
        errors[p] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) {
      std::rethrow_exception(e);
    }
  }
}

// ---- child ----------------------------------------------------------------

struct Stream {
  std::string name;
  ChunkStream chunks;
  std::size_t expectedAlerts = 0;
  /// (process, segment) of each alert -> chunk that closes the segment.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> alertChunk;
};

Stream loadStream(const RunContext& ctx, std::size_t producer) {
  Stream s;
  s.name = streamName(producer);
  s.chunks = readChunkStream(ctx.path(fileOf(producer, ".chunks")));
  std::istringstream alerts(readFile(ctx.path(fileOf(producer, ".alerts"))));
  alerts >> s.expectedAlerts;
  std::uint64_t process = 0;
  std::uint64_t segment = 0;
  std::size_t chunk = 0;
  while (alerts >> process >> segment >> chunk) {
    s.alertChunk[{process, segment}] = chunk;
  }
  return s;
}

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Everything one round measured, pooled over rounds by the caller.
struct Pool {
  std::vector<double> append;
  std::vector<double> alert;
  std::vector<double> setup;
  std::vector<double> finalAnalyze;
  std::vector<double> append0;  ///< producer 0's round trips
  double events = 0.0;
  double streamSeconds = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string outputs;  ///< per round: hashes and alert counts for check()
};

server::Client connect(server::Server& srv) {
  auto [serverEnd, clientEnd] = util::socketPair();
  srv.serveConnection(std::move(serverEnd));
  return server::Client(std::move(clientEnd));
}

/// The subscriber: read Alert frames until every expected alert (or its
/// drop marker) arrived. A receive timeout keeps a lost alert from
/// hanging the run; whatever is missing then fails the alert check.
void subscribe(server::Client& subscriber, const std::vector<Stream>& streams,
               const std::vector<std::vector<std::atomic<std::int64_t>>>& sent,
               std::vector<std::uint64_t>& delivered, Pool& pool) {
  const timeval timeout{30, 0};
  ::setsockopt(subscriber.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
               sizeof timeout);
  std::size_t expected = 0;
  for (const Stream& s : streams) {
    expected += s.expectedAlerts;
  }
  std::uint64_t seen = 0;
  util::Frame frame;
  try {
    while (seen < expected && util::readFrame(subscriber.fd(), frame)) {
      if (frame.type != static_cast<std::uint8_t>(server::FrameType::Alert)) {
        continue;
      }
      const std::int64_t received = nowNs();
      const std::string_view line = frame.payload;
      if (line.rfind("dropped=", 0) == 0) {
        const std::uint64_t n = numberAfter(line, "dropped=");
        pool.dropped += n;
        seen += n;
        continue;
      }
      ++seen;
      for (std::size_t p = 0; p < streams.size(); ++p) {
        if (line.substr(0, line.find(':')) != streams[p].name) {
          continue;
        }
        const auto it = streams[p].alertChunk.find(
            {numberAfter(line, "process "), numberAfter(line, "\" segment ")});
        if (it != streams[p].alertChunk.end()) {
          ++delivered[p];
          pool.alert.push_back(
              static_cast<double>(received - sent[p][it->second].load()) *
              1e-9);
        }
      }
    }
  } catch (const std::exception& e) {
    noteFailure(e.what());
  }
}

/// One producer: every chunk in send order, then the final analyze.
struct ProducerLog {
  std::vector<double> append;
  double events = 0.0;
  double streamEnd = 0.0;  ///< seconds after the round's start
  double finalAnalyze = 0.0;
  std::string finalText;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

void produce(server::Client& client, const Stream& stream,
             std::vector<std::atomic<std::int64_t>>& sent,
             Clock::time_point roundStart, ProducerLog& log) {
  for (const std::size_t index : stream.chunks.sendOrder) {
    ++log.attempted;
    sent[index].store(nowNs());
    const auto start = Clock::now();
    const server::ClientResponse response = inSpan("append", [&] {
      return inSpan("server.append", [&] {
        return client.append(stream.name, stream.chunks.images[index]);
      });
    });
    log.append.push_back(secondsSince(start));
    if (response.ok()) {
      log.events += static_cast<double>(numberAfter(response.payload, ": "));
    } else {
      noteFailure(response.payload);
      ++log.failed;
    }
  }
  log.streamEnd = secondsSince(roundStart);
  ++log.attempted;
  const auto start = Clock::now();
  const server::ClientResponse analyzed =
      inSpan("server.analyze", [&] { return client.analyze(stream.name); });
  log.finalAnalyze = secondsSince(start);
  if (analyzed.type == server::FrameType::Data) {
    log.finalText = analyzed.payload;
  } else {
    noteFailure(analyzed.payload);
    ++log.failed;
  }
}

void runRound(const server::ServerOptions& options,
              const std::vector<Stream>& streams, std::size_t round,
              Pool& pool) {
  std::filesystem::remove_all(options.journalDir);
  std::vector<std::vector<std::atomic<std::int64_t>>> sent;
  for (const Stream& s : streams) {
    sent.emplace_back(s.chunks.images.size());
  }
  std::vector<std::uint64_t> delivered(streams.size(), 0);
  std::vector<ProducerLog> logs(streams.size());
  {
    server::Server srv(options);
    std::vector<server::Client> producers;
    for (const Stream& s : streams) {
      producers.push_back(connect(srv));
      ++pool.attempted;
      const server::ClientResponse opened =
          producers.back().open(s.name, std::string(kSegmentFunction));
      if (!opened.ok()) {
        noteFailure(opened.payload);
        ++pool.failed;
      }
    }
    server::Client subscriber = connect(srv);
    for (const Stream& s : streams) {
      ++pool.attempted;
      const server::ClientResponse subscribed = subscriber.subscribe(s.name);
      if (!subscribed.ok()) {
        noteFailure(subscribed.payload);
        ++pool.failed;
      }
    }
    std::thread reader(
        [&] { subscribe(subscriber, streams, sent, delivered, pool); });
    const auto roundStart = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < streams.size(); ++p) {
      threads.emplace_back([&, p] {
        produce(producers[p], streams[p], sent[p], roundStart, logs[p]);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    reader.join();
    subscriber.close();
    for (server::Client& c : producers) {
      c.close();
    }
  }

  double streamSeconds = 0.0;
  for (std::size_t p = 0; p < streams.size(); ++p) {
    const ProducerLog& log = logs[p];
    pool.append.insert(pool.append.end(), log.append.begin(), log.append.end());
    if (p == 0) {
      pool.append0.insert(pool.append0.end(), log.append.begin(),
                          log.append.end());
    }
    pool.events += log.events;
    pool.finalAnalyze.push_back(log.finalAnalyze);
    pool.attempted += log.attempted;
    pool.failed += log.failed;
    pool.delivered += delivered[p];
    streamSeconds = std::max(streamSeconds, log.streamEnd);
    pool.outputs += "final " + std::to_string(round) + ' ' +
                    std::to_string(p) + ' ' +
                    std::to_string(digest(log.finalText)) + '\n' +
                    "alerts " + std::to_string(round) + ' ' +
                    std::to_string(p) + ' ' + std::to_string(delivered[p]) +
                    '\n';
  }
  pool.streamSeconds += streamSeconds;

  // Recovery: rebuild from the journals until the first stats answers,
  // then read each trace back.
  server::ServerOptions recover = options;
  recover.recover = true;
  const auto start = Clock::now();
  server::Server srv(recover);
  server::Client client = connect(srv);
  ++pool.attempted;
  if (client.stats().type != server::FrameType::Data ||
      residentTraces(srv.service()) != streams.size()) {
    noteFailure("the recovered server does not hold every stream");
    ++pool.failed;
  }
  pool.setup.push_back(secondsSince(start));
  for (std::size_t p = 0; p < streams.size(); ++p) {
    ++pool.attempted;
    const server::ClientResponse analyzed = client.analyze(streams[p].name);
    if (analyzed.type != server::FrameType::Data) {
      noteFailure(analyzed.payload);
      ++pool.failed;
    }
    pool.outputs += "recovered " + std::to_string(round) + ' ' +
                    std::to_string(p) + ' ' +
                    std::to_string(digest(analyzed.payload)) + '\n';
  }
  client.close();
}

void runServe(const RunContext& ctx, Measurements& out) {
  std::vector<Stream> streams;
  for (std::size_t p = 0; p < kProducers; ++p) {
    streams.push_back(loadStream(ctx, p));
  }
  server::ServerOptions options;
  options.journalDir = ctx.path("journal");
  for (const Stream& s : streams) {
    options.reorderWindowBytes =
        std::max(options.reorderWindowBytes, reorderWindowBytes(s.chunks));
  }

  Pool pool;
  for (std::size_t round = 0; round < ctx.count(kRoundsPerSecond, 1); ++round) {
    runRound(options, streams, round, pool);
  }
  std::filesystem::remove_all(options.journalDir);
  writeFile(ctx.path(kOutputs), pool.outputs);

  out.attempted += pool.attempted;
  out.failed += pool.failed;
  out.add("setup_s", quantile(pool.setup, 0.5), "s", pool.setup.size());
  addLatency(out, "append", pool.append, "ms");
  out.add("ingest_events_per_s", pool.events / pool.streamSeconds, "events/s",
          static_cast<std::size_t>(pool.events));
  if (!pool.alert.empty()) {
    addLatency(out, "alert", pool.alert, "ms");
  }
  out.add("server.final_analyze_s", quantile(pool.finalAnalyze, 0.5), "s",
          pool.finalAnalyze.size());
  out.add("server.alerts_delivered", static_cast<double>(pool.delivered),
          "count");
  out.add("server.alerts_dropped", static_cast<double>(pool.dropped), "count");
  if (spansEnabled()) {
    // Transport share of an append: round trip minus the handler alone,
    // on the same frames with the same options.
    server::ServerOptions direct = options;
    direct.journalDir = ctx.path("transport-journal");
    enableSpans(false);  // not part of the producers' appends
    const ServiceReplay replay = replayIntoService(
        direct, streams[0].chunks, std::string(kSegmentFunction));
    enableSpans(true);
    std::filesystem::remove_all(direct.journalDir);
    out.add("server.transport_ms",
            (quantile(pool.append0, 0.5) - quantile(replay.handleSeconds, 0.5)) *
                1e3,
            "ms", pool.append0.size());
  }
}

void probeServe(const RunContext& ctx, Measurements& out) {
  ProbeInput input;
  input.tracePath = ctx.path(fileOf(0, ".pvt"));
  input.open = [&] { trace::loadBinaryFile(input.tracePath); };
  input.view = trace::TraceView::owned(trace::loadBinaryFile(input.tracePath));
  input.threads = server::ServerOptions{}.threads;
  input.shardBudgetBytes = halfDecodedBytes(input.tracePath);
  input.stream = readChunkStream(ctx.path(fileOf(0, ".chunks")));
  input.segmentFunction = std::string(kSegmentFunction);
  runLayerProbes(ctx, input, out);
}

std::vector<std::string> checkServe(const RunContext& ctx) {
  std::vector<std::uint64_t> reference;
  std::vector<std::uint64_t> expectedAlerts;
  for (std::size_t p = 0; p < kProducers; ++p) {
    reference.push_back(digest(readFile(ctx.path(fileOf(p, ".reference")))));
    std::istringstream alerts(readFile(ctx.path(fileOf(p, ".alerts"))));
    std::uint64_t n = 0;
    alerts >> n;
    expectedAlerts.push_back(n);
  }
  std::vector<std::string> problems;
  std::istringstream in(readFile(ctx.path(kOutputs)));
  std::string kind;
  std::size_t round = 0;
  std::size_t producer = 0;
  std::uint64_t value = 0;
  std::size_t lines = 0;
  while (in >> kind >> round >> producer >> value) {
    ++lines;
    const std::string where = " (round " + std::to_string(round) + ", " +
                              streamName(producer) + ")";
    if (producer >= kProducers) {
      problems.push_back("unknown producer" + where);
    } else if (kind == "alerts" && value != expectedAlerts[producer]) {
      problems.push_back("subscriber received " + std::to_string(value) +
                         " alerts, StreamingSos::replay raises " +
                         std::to_string(expectedAlerts[producer]) + where);
    } else if (kind == "final" && value != reference[producer]) {
      problems.push_back(
          "final analyze differs from formatAnalysis(analyzeTrace(...))" +
          where);
    } else if (kind == "recovered" && value != reference[producer]) {
      problems.push_back("recovered server answers a different analyze" +
                         where);
    }
  }
  if (lines == 0) {
    problems.push_back("no round completed");
  }
  return problems;
}

}  // namespace

const Workload kServeIngest{
    "serve-ingest", "append", "ms",       "ingest_events_per_s",
    generateServe,  runServe, probeServe, checkServe};

}  // namespace perfvar::bench
