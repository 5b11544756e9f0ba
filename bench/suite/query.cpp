/// \file query.cpp
/// query-drilldown: two clients share one AnalysisEngine over the paper
/// trace and each run a closed loop of drill-down queries, a fixed number
/// per client. The trace is decoded once, before the timed phase, so the
/// load lands on the engine cache, report rendering and concurrent cold
/// queries sharing the engine's pool.
///
/// The kind mix is formatReport 50%, JSON export 20%, CSV export 10%,
/// dependency report 10%, lint report 10%. The first three draw their
/// options from a seeded Zipf distribution over 4 candidates x 24 outlier
/// thresholds = 96 option fingerprints, more than the engine's 64 cache
/// entries, so the loop sees hits, misses and evictions.

#include <algorithm>
#include <cmath>
#include <latch>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "counters.hpp"
#include "engine/engine.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "trace/binary_io.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfvar::bench {
namespace {

constexpr std::string_view kTrace = "input.pvt";
constexpr std::string_view kAnswers = "answers.txt";
constexpr std::size_t kClients = 2;
constexpr std::size_t kCandidates = 4;
constexpr std::size_t kThresholds = 24;
constexpr double kZipfExponent = 0.5;
/// Queries of each client per nominal second (RunContext::count).
constexpr double kQueriesPerSecond = 750.0;

enum class Kind : std::uint32_t { Report, Json, Csv, Deps, Lint };

struct Query {
  Kind kind = Kind::Report;
  std::uint32_t candidate = 0;
  std::uint32_t threshold = 0;  ///< rung of the threshold ladder

  std::uint32_t key() const {
    return (static_cast<std::uint32_t>(kind) * kCandidates + candidate) *
               kThresholds +
           threshold;
  }
};

std::string queryFile(std::size_t client) {
  return "queries" + std::to_string(client) + ".txt";
}

std::string formatQuery(const Query& q) {
  return std::to_string(static_cast<std::uint32_t>(q.kind)) + ' ' +
         std::to_string(q.candidate) + ' ' + std::to_string(q.threshold);
}

Query fromKey(std::uint32_t key) {
  Query q;
  q.threshold = key % kThresholds;
  q.candidate = (key / kThresholds) % kCandidates;
  q.kind = static_cast<Kind>(key / kThresholds / kCandidates);
  return q;
}

std::vector<Query> readQueries(const std::string& path) {
  std::istringstream in(readFile(path));
  std::vector<Query> queries;
  std::uint32_t kind = 0;
  Query q;
  while (in >> kind >> q.candidate >> q.threshold) {
    q.kind = static_cast<Kind>(kind);
    queries.push_back(q);
  }
  return queries;
}

/// What a trace_tool query session prints for `q`.
std::string answer(engine::AnalysisEngine& engine, const Query& q) {
  analysis::PipelineOptions options;
  options.candidateIndex = q.candidate;
  options.variation.outlierThreshold = 2.0 + 0.125 * q.threshold;
  std::ostringstream out;
  switch (q.kind) {
    case Kind::Report:
      return inSpan("engine.format_report",
                    [&] { return engine.formatReport(options); });
    case Kind::Json:
      inSpan("engine.export_json", [&] {
        engine.exportReport(analysis::ExportFormat::Json, out, options);
      });
      return std::move(out).str();
    case Kind::Csv:
      inSpan("engine.export_csv", [&] {
        engine.exportReport(analysis::ExportFormat::Csv, out, options);
      });
      return std::move(out).str();
    case Kind::Deps:
      return inSpan("engine.dep_report",
                    [&] { return engine.formatDepReport(); });
    case Kind::Lint: {
      const auto report =
          inSpan("engine.lint_report", [&] { return engine.lintReport(); });
      return inSpan("lint.format",
                    [&] { return lint::formatLintReport(*report); });
    }
  }
  throw std::runtime_error("unknown query kind");
}

engine::EngineOptions engineOptions(const RunContext& ctx) {
  engine::EngineOptions options;
  options.threads = ctx.nproc > 2 ? ctx.nproc - 2 : 1;
  return options;
}

/// Engines are neither copyable nor movable: construct fromFile's result
/// straight into the heap.
std::unique_ptr<engine::AnalysisEngine> openEngine(
    const std::string& path, const engine::EngineOptions& options) {
  return std::unique_ptr<engine::AnalysisEngine>(new engine::AnalysisEngine(
      engine::AnalysisEngine::fromFile(path, options)));
}

std::uint64_t digest(const std::string& text) {
  return util::Hasher{}.str(text).digest();
}

std::size_t queriesPerClient(const RunContext& ctx) {
  return ctx.count(kQueriesPerSecond, 1'000);
}

void generateQuery(const RunContext& ctx) {
  writeCosmoTrace(ctx, ctx.path(kTrace));
  Rng rng(ctx.seed);
  // Zipf over the option keys. Popularity ranks cycle through the
  // candidates, so each candidate gets the same share of the traffic for
  // every seed (which candidates' SOS entries stay cached sets the cost of
  // a miss); each candidate's thresholds take its ranks in a seeded order.
  std::vector<std::vector<std::uint32_t>> thresholdOrder(kCandidates);
  for (auto& order : thresholdOrder) {
    for (std::uint32_t t = 0; t < kThresholds; ++t) {
      order.push_back(t);
    }
    rng.shuffle(order);
  }
  std::vector<double> cumulative;
  double total = 0.0;
  for (std::size_t rank = 0; rank < kCandidates * kThresholds; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
    cumulative.push_back(total);
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    std::string lines;
    for (std::size_t i = 0; i < queriesPerClient(ctx); ++i) {
      const double u = rng.uniform();
      Query q;
      q.kind = u < 0.5   ? Kind::Report
               : u < 0.7 ? Kind::Json
               : u < 0.8 ? Kind::Csv
               : u < 0.9 ? Kind::Deps
                         : Kind::Lint;
      if (q.kind == Kind::Report || q.kind == Kind::Json ||
          q.kind == Kind::Csv) {
        const auto rank = static_cast<std::size_t>(std::min<std::ptrdiff_t>(
            std::lower_bound(cumulative.begin(), cumulative.end(),
                             rng.uniform() * total) -
                cumulative.begin(),
            static_cast<std::ptrdiff_t>(cumulative.size() - 1)));
        q.candidate = static_cast<std::uint32_t>(rank % kCandidates);
        q.threshold = thresholdOrder[q.candidate][rank / kCandidates];
      }
      lines += formatQuery(q) + '\n';
    }
    writeFile(ctx.path(queryFile(c)), lines);
  }
  if (ctx.trace) {
    writeProbeChunks(ctx, trace::loadBinaryFile(ctx.path(kTrace)));
  }
}

struct ClientLog {
  std::vector<double> latency;
  std::unordered_map<std::uint32_t, std::uint64_t> firstAnswers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One client's closed loop over the first `count` queries of its list.
void runClient(engine::AnalysisEngine& engine,
               const std::vector<Query>& queries, std::size_t count,
               ClientLog& log) {
  for (std::size_t i = 0; i < std::min(count, queries.size()); ++i) {
    const Query& q = queries[i];
    ++log.attempted;
    const auto start = Clock::now();
    std::string text;
    try {
      text = inSpan("query", [&] { return answer(engine, q); });
    } catch (const std::exception& e) {
      noteFailure(e.what());
      ++log.failed;
      continue;
    }
    log.latency.push_back(secondsSince(start));
    if (log.firstAnswers.find(q.key()) == log.firstAnswers.end()) {
      log.firstAnswers.emplace(q.key(), digest(text));
    }
  }
}

/// Traced runs: per-query latency on one client, split by whether the
/// engine's miss counter grew (exact with a single client).
void hitMissSplit(const RunContext& ctx, const std::vector<Query>& queries,
                  Measurements& out) {
  const auto engine = openEngine(ctx.path(kTrace), engineOptions(ctx));
  std::vector<double> hits;
  std::vector<double> misses;
  const std::size_t n = std::min(queries.size(), ctx.smoke ? std::size_t{200}
                                                           : std::size_t{2000});
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t before = cacheCounters(*engine).misses;
    const auto start = Clock::now();
    answer(*engine, queries[i]);
    const double seconds = secondsSince(start);
    (cacheCounters(*engine).misses > before ? misses : hits).push_back(seconds);
  }
  out.add("engine.mix_hit_ms", quantile(hits, 0.5) * 1e3, "ms", hits.size());
  out.add("engine.mix_miss_ms", quantile(misses, 0.5) * 1e3, "ms",
          misses.size());
}

/// Traced runs: cold-query latency with two clients sharing an engine
/// over the same with one client. Every query is a distinct option key on
/// a fresh engine, so every one misses.
void missContention(const RunContext& ctx, Measurements& out) {
  std::vector<Query> cold;
  for (std::uint32_t c = 0; c < kCandidates; ++c) {
    for (std::uint32_t t = 0; t < kThresholds; ++t) {
      cold.push_back(Query{Kind::Report, c, t});
    }
  }
  const auto run = [&](std::size_t clients) {
    const auto engine = openEngine(ctx.path(kTrace), engineOptions(ctx));
    std::vector<std::vector<double>> latency(clients);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t i = c; i < cold.size(); i += clients) {
          const auto start = Clock::now();
          answer(*engine, cold[i]);
          latency[c].push_back(secondsSince(start));
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    std::vector<double> pooled;
    for (const auto& l : latency) {
      pooled.insert(pooled.end(), l.begin(), l.end());
    }
    return quantile(pooled, 0.5);
  };
  const double one = run(1);
  out.add("engine.miss_contention", run(kClients) / one, "ratio",
          cold.size());
}

void runQuery(const RunContext& ctx, Measurements& out) {
  std::vector<std::vector<Query>> queries;
  for (std::size_t c = 0; c < kClients; ++c) {
    queries.push_back(readQueries(ctx.path(queryFile(c))));
  }
  const engine::EngineOptions options = engineOptions(ctx);
  std::vector<double> setup;
  std::unique_ptr<engine::AnalysisEngine> engine;
  for (int i = 0; i < (ctx.smoke ? 2 : 15); ++i) {
    engine.reset();
    const auto start = Clock::now();
    engine = inSpan("trace.open",
                    [&] { return openEngine(ctx.path(kTrace), options); });
    setup.push_back(secondsSince(start));
  }

  std::vector<ClientLog> logs(kClients);
  std::latch start(static_cast<std::ptrdiff_t>(kClients + 1));
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      start.arrive_and_wait();
      runClient(*engine, queries[c], queriesPerClient(ctx), logs[c]);
    });
  }
  start.arrive_and_wait();
  const auto began = Clock::now();
  for (std::thread& t : clients) {
    t.join();
  }
  const double wall = secondsSince(began);

  std::vector<double> latency;
  std::unordered_map<std::uint32_t, std::uint64_t> answers;
  for (const ClientLog& log : logs) {
    latency.insert(latency.end(), log.latency.begin(), log.latency.end());
    out.attempted += log.attempted;
    out.failed += log.failed;
    for (const auto& [key, hash] : log.firstAnswers) {
      const auto [it, added] = answers.emplace(key, hash);
      if (!added && it->second != hash) {
        noteFailure("the clients got different answers to query '" +
                    formatQuery(fromKey(key)) + "'");
        ++out.failed;
      }
    }
  }
  std::string lines;
  for (const auto& [key, hash] : answers) {
    lines += std::to_string(key) + ' ' + std::to_string(hash) + '\n';
  }
  writeFile(ctx.path(kAnswers), lines);

  out.add("setup_s", quantile(setup, 0.5), "s", setup.size());
  addLatency(out, "query", latency, "ms");
  out.add("queries_per_s", static_cast<double>(latency.size()) / wall, "1/s",
          latency.size());
  const CacheCounters cache = cacheCounters(*engine);
  out.add("engine.hit_ratio",
          static_cast<double>(cache.hits) /
              static_cast<double>(std::max<std::uint64_t>(
                  1, cache.hits + cache.misses)),
          "ratio", cache.hits + cache.misses);
  out.add("engine.evictions", static_cast<double>(cache.evictions), "count");
  if (spansEnabled()) {
    // Measured outside the clients' loop: no spans of their own.
    enableSpans(false);
    hitMissSplit(ctx, queries[0], out);
    missContention(ctx, out);
    enableSpans(true);
  }
}

void probeQuery(const RunContext& ctx, Measurements& out) {
  ProbeInput input;
  input.tracePath = ctx.path(kTrace);
  input.open = [&] { openEngine(input.tracePath, engineOptions(ctx)); };
  input.view = trace::TraceView::owned(trace::loadBinaryFile(input.tracePath));
  input.threads = engineOptions(ctx).threads;
  input.shardBudgetBytes = halfDecodedBytes(input.tracePath);
  input.stream = readChunkStream(ctx.path(kProbeChunks));
  input.segmentFunction = "cosmo_specs_timestep";  // the dominant function
  runLayerProbes(ctx, input, out);
}

std::vector<std::string> checkQuery(const RunContext& ctx) {
  engine::EngineOptions options;
  options.threads = ctx.nproc;
  options.maxCacheEntries = 0;
  const auto fresh = openEngine(ctx.path(kTrace), options);
  std::istringstream in(readFile(ctx.path(kAnswers)));
  std::vector<std::string> problems;
  std::size_t checked = 0;
  std::uint32_t key = 0;
  std::uint64_t hash = 0;
  while (in >> key >> hash) {
    ++checked;
    if (digest(answer(*fresh, fromKey(key))) != hash) {
      problems.push_back("query '" + formatQuery(fromKey(key)) +
                         "' differs from the same query on a fresh engine");
    }
  }
  if (checked == 0) {
    problems.push_back("no query was answered");
  }
  return problems;
}

}  // namespace

const Workload kQueryDrilldown{
    "query-drilldown", "query",   "ms",       "queries_per_s",
    generateQuery,     runQuery,  probeQuery, checkQuery};

}  // namespace perfvar::bench
