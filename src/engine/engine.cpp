#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "trace/binary_io.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace perfvar::engine {

namespace {

// Stage tags mixed into every fingerprint so keys of different stages can
// never collide even for identical option content.
constexpr std::uint64_t kTagDominant = 0x646f6d;    // "dom"
constexpr std::uint64_t kTagSos = 0x736f73;         // "sos"
constexpr std::uint64_t kTagVariation = 0x766172;   // "var"
constexpr std::uint64_t kTagDep = 0x646570;         // "dep"

std::uint64_t fingerprintDominant(const analysis::DominantOptions& o) {
  util::Hasher h;
  h.u64(kTagDominant)
      .u64(o.invocationMultiplier)
      .boolean(o.excludeSynchronization);
  // The classifier only participates in candidacy filtering when
  // exclusion is on; keying on it otherwise would split identical results.
  if (o.excludeSynchronization) {
    h.u64(o.syncClassifier.cacheToken());
  }
  return h.digest();
}

std::uint64_t fingerprintSos(trace::FunctionId segmentFunction,
                             const analysis::SyncClassifier& classifier) {
  return util::Hasher{}
      .u64(kTagSos)
      .u64(segmentFunction)
      .u64(classifier.cacheToken())
      .digest();
}

std::uint64_t fingerprintVariation(std::uint64_t sosKey,
                                   const analysis::VariationOptions& o) {
  return util::Hasher{}
      .u64(kTagVariation)
      .u64(sosKey)
      .f64(o.outlierThreshold)
      .f64(o.processThreshold)
      .u64(o.maxHotspots)
      .digest();
}

std::uint64_t fingerprintDep(const analysis::DepAnalysisOptions& o) {
  // Execution fields (threads/pool) are deliberately
  // excluded: graph construction is byte-identical at every thread count.
  return util::Hasher{}
      .u64(kTagDep)
      .u64(o.sync.cacheToken())
      .f64(o.serialization.rankShareThreshold)
      .f64(o.serialization.functionShareThreshold)
      .u64(o.serialization.minProcesses)
      .u64(o.idleWave.minWaitTicks)
      .f64(o.idleWave.minWaitShare)
      .u64(o.idleWave.minRanks)
      .digest();
}

/// A stage's input view; throws when every rank of the engine's trace is
/// quarantined, leaving nothing to analyze.
const trace::TraceView& analyzable(const trace::TraceView& view) {
  PERFVAR_REQUIRE(view.valid(),
                  "every rank is quarantined: nothing to analyze");
  return view;
}

// Approximate resident sizes of cached stage results (capacity-based where
// the containers are reachable; close enough for observability and
// eviction accounting, not an allocator audit).

std::size_t approxBytes(const profile::FlatProfile& p) {
  return sizeof(p) + (p.processCount() + 1) * p.functionCount() *
                         sizeof(profile::FunctionStats);
}

std::size_t approxBytes(const analysis::DominantSelection& s) {
  return sizeof(s) + (s.candidates.capacity() + s.rejectedTopLevel.capacity()) *
                         sizeof(analysis::DominantCandidate);
}

std::size_t approxBytes(const analysis::SosResult& r) {
  std::size_t total = sizeof(r);
  for (const auto& per : r.all()) {
    total += per.capacity() * sizeof(analysis::SegmentAnalysis);
    for (const auto& seg : per) {
      total += seg.metricDelta.capacity() * sizeof(double);
    }
  }
  return total;
}

std::size_t approxBytes(const analysis::VariationReport& v) {
  return sizeof(v) +
         v.iterations.capacity() * sizeof(analysis::IterationStats) +
         v.processes.capacity() * sizeof(analysis::ProcessStats) +
         (v.processesBySos.capacity() + v.culpritProcesses.capacity()) *
             sizeof(trace::ProcessId) +
         v.hotspots.capacity() * sizeof(analysis::Hotspot);
}

std::size_t approxBytes(const analysis::DepAnalysis& a) {
  std::size_t total =
      sizeof(a) +
      a.criticalPath.steps.capacity() * sizeof(analysis::CriticalPathStep) +
      (a.criticalPath.rankTicks.capacity() +
       a.criticalPath.functionTicks.capacity()) *
          sizeof(std::uint64_t) +
      (a.serialization.ranks.capacity() +
       a.serialization.dominatedRanks.capacity()) *
          sizeof(analysis::RankCriticality) +
      a.serialization.bottlenecks.capacity() *
          sizeof(analysis::RegionCriticality) +
      a.idleWaves.waves.capacity() * sizeof(analysis::IdleWave);
  for (const analysis::IdleWave& wave : a.idleWaves.waves) {
    total += wave.hops.capacity() * sizeof(analysis::IdleWaveHop);
  }
  return total;
}

std::size_t approxBytes(const lint::LintReport& r) {
  std::size_t total = sizeof(r) +
                      r.findings.capacity() * sizeof(lint::Finding) +
                      r.truncated.capacity() * sizeof(lint::TruncatedRule);
  for (const lint::Finding& f : r.findings) {
    total += f.rule.size() + f.message.size();
  }
  for (const std::string& id : r.rulesRun) {
    total += sizeof(std::string) + id.size();
  }
  return total;
}

}  // namespace

struct AnalysisEngine::Impl {
  template <typename T>
  struct Entry {
    std::shared_ptr<const T> value;
    std::uint64_t lastUse = 0;
    std::size_t bytes = 0;
  };
  template <typename T>
  using Map = std::unordered_map<std::uint64_t, Entry<T>>;

  /// Guards every cache container, computing, useClock and bytes. Held
  /// only for map lookups/inserts, never while a stage computes.
  std::mutex cacheMutex;
  /// The (map, key) pairs a caller is computing; another caller that
  /// misses on one waits on `computed` instead of computing it again.
  std::set<std::pair<const void*, std::uint64_t>> computing;
  std::condition_variable computed;
  std::uint64_t useClock = 0;
  std::uint64_t bytes = 0;

  /// Single-key maps (key 0), inserted with maxEntries 0: never evicted.
  Map<profile::FlatProfile> profile;
  Map<lint::LintReport> lint;
  Map<analysis::DominantSelection> dominant;
  Map<analysis::SosResult> sos;
  Map<analysis::VariationReport> variation;
  Map<analysis::DepAnalysis> dep;

  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> evictions{0};

  /// Workers of the heavy stages (null when EngineOptions::threads == 1).
  /// Concurrent queries share it: every parallelChunks call waits only
  /// for its own ranges.
  std::unique_ptr<util::ThreadPool> pool;

  template <typename Map>
  void evictLruFrom(Map& map, typename Map::iterator victim) {
    bytes -= victim->second.bytes;
    map.erase(victim);
    evictions.fetch_add(1, std::memory_order_relaxed);
  }

  /// Drop least-recently-used derived entries until the combined count is
  /// within `maxEntries` again. Caller holds cacheMutex.
  void evictIfNeeded(std::size_t maxEntries) {
    if (maxEntries == 0) {
      return;
    }
    auto lruUse = [](const auto& map) {
      std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
      for (const auto& [key, entry] : map) {
        best = std::min(best, entry.lastUse);
      }
      return best;
    };
    auto lruIt = [](auto& map) {
      auto best = map.begin();
      for (auto it = map.begin(); it != map.end(); ++it) {
        if (it->second.lastUse < best->second.lastUse) {
          best = it;
        }
      }
      return best;
    };
    while (dominant.size() + sos.size() + variation.size() + dep.size() >
           maxEntries) {
      const std::uint64_t d = lruUse(dominant);
      const std::uint64_t s = lruUse(sos);
      const std::uint64_t v = lruUse(variation);
      const std::uint64_t g = lruUse(dep);
      if (d <= s && d <= v && d <= g) {
        evictLruFrom(dominant, lruIt(dominant));
      } else if (s <= v && s <= g) {
        evictLruFrom(sos, lruIt(sos));
      } else if (v <= g) {
        evictLruFrom(variation, lruIt(variation));
      } else {
        evictLruFrom(dep, lruIt(dep));
      }
    }
  }

  /// The cache protocol of every stage: lookup under the lock, compute
  /// outside it on a miss, insert. A key is computed by one caller at a
  /// time: a caller that misses while another computes the same key
  /// waits for that insert and counts a hit, so concurrent queries never
  /// hold two copies of one stage's working memory. A failed compute
  /// leaves the key missing; the next waiter computes it (and fails) in
  /// turn. Stages only wait on stages they read, so no cycle can form.
  template <typename T, typename Compute>
  std::shared_ptr<const T> getOrCompute(Map<T>& map, std::uint64_t key,
                                        std::size_t maxEntries,
                                        Compute&& compute) {
    const std::pair<const void*, std::uint64_t> slot{&map, key};
    std::unique_lock<std::mutex> lock(cacheMutex);
    while (true) {
      const auto it = map.find(key);
      if (it != map.end()) {
        it->second.lastUse = ++useClock;
        hits.fetch_add(1, std::memory_order_relaxed);
        return it->second.value;
      }
      if (computing.insert(slot).second) {
        break;
      }
      computed.wait(lock);
    }
    lock.unlock();
    misses.fetch_add(1, std::memory_order_relaxed);
    std::shared_ptr<const T> value;
    try {
      value = std::make_shared<const T>(compute());
    } catch (...) {
      lock.lock();
      computing.erase(slot);
      computed.notify_all();
      throw;
    }
    lock.lock();
    computing.erase(slot);
    computed.notify_all();
    Entry<T>& entry = map[key];
    entry.value = value;
    entry.lastUse = ++useClock;
    entry.bytes = approxBytes(*value);
    bytes += entry.bytes;
    evictIfNeeded(maxEntries);
    return value;
  }

  /// Stage 2 over an already-fetched profile, shared by dominant() and
  /// analyze() so each counts one cache event per stage.
  std::shared_ptr<const analysis::DominantSelection> dominantOf(
      const trace::TraceView& view, const profile::FlatProfile& prof,
      const analysis::DominantOptions& options, std::size_t maxEntries) {
    return getOrCompute(dominant, fingerprintDominant(options), maxEntries,
                        [&] {
                          return analysis::selectDominantFunction(view, prof,
                                                                  options);
                        });
  }
};

AnalysisEngine::AnalysisEngine(trace::Trace trace, EngineOptions options)
    : AnalysisEngine(trace::TraceView::owned(std::move(trace)),
                     std::move(options)) {}

AnalysisEngine::AnalysisEngine(trace::TraceView view, EngineOptions options)
    : view_(std::move(view)),
      options_(options),
      impl_(std::make_unique<Impl>()) {
  // Degraded input: build the filtered analysis view once; every stage
  // (and every cache entry) is then relative to it, exactly like
  // analyzeTrace() on the same trace. With every rank quarantined the
  // view stays invalid: the stages throw, trace() and lint still work.
  if (view_.quarantined().empty() ||
      view_.quarantined().size() < view_.processCount()) {
    analysisView_ = view_.dropQuarantined();
  }
  if (options_.threads != 1) {
    impl_->pool = std::make_unique<util::ThreadPool>(options_.threads);
  }
}

AnalysisEngine::~AnalysisEngine() = default;

AnalysisEngine AnalysisEngine::fromFile(const std::string& path,
                                        EngineOptions options) {
  // Load with the same parallelism the engine will analyze with: v2
  // trace files decode their per-rank blocks on that many threads
  // (identical Trace for any thread count; v1 files load serially).
  trace::BinaryReadOptions readOptions;
  readOptions.threads = options.threads;
  return AnalysisEngine(trace::loadBinaryFile(path, readOptions), options);
}

std::shared_ptr<const profile::FlatProfile> AnalysisEngine::profile() {
  return impl_->getOrCompute(impl_->profile, 0, /*maxEntries=*/0, [&] {
    return profile::FlatProfile::build(analyzable(analysisView_),
                                       impl_->pool.get());
  });
}

std::shared_ptr<const lint::LintReport> AnalysisEngine::lintReport() {
  return impl_->getOrCompute(impl_->lint, 0, /*maxEntries=*/0, [&] {
    // Lint the raw trace (not the filtered view): the
    // quarantine-interaction rule exists precisely to surface the ranks
    // the analyses drop. The engine is the run's stage source, so the
    // global rules read the cached stages a report uses.
    lint::LintOptions lintOptions;
    lintOptions.pool = impl_->pool.get();
    return lint::lintTrace(view_, lintOptions, lint::RuleRegistry::builtin(),
                           this);
  });
}

const trace::TraceView* AnalysisEngine::analysisTrace() {
  return analysisView_.valid() ? &analysisView_ : nullptr;
}

std::shared_ptr<const analysis::DominantSelection> AnalysisEngine::dominant(
    const analysis::DominantOptions& options) {
  return impl_->dominantOf(analysisView_, *profile(), options,
                           options_.maxCacheEntries);
}

std::shared_ptr<const analysis::DepAnalysis> AnalysisEngine::depAnalysis(
    const analysis::DepAnalysisOptions& options) {
  return impl_->getOrCompute(
      impl_->dep, fingerprintDep(options), options_.maxCacheEntries, [&] {
        analysis::DepAnalysisOptions effective = options;
        effective.threads = 1;  // the engine's pool, or inline
        effective.pool = impl_->pool.get();
        return analysis::analyzeDependencies(analyzable(analysisView_),
                                             effective);
      });
}

std::string AnalysisEngine::formatDepReport(
    const analysis::DepAnalysisOptions& options) {
  return analysis::formatDepAnalysis(analysisView_, *depAnalysis(options));
}

void AnalysisEngine::exportDepReport(analysis::ExportFormat format,
                                     std::ostream& out,
                                     const analysis::DepAnalysisOptions& options) {
  analysis::exportDepAnalysis(analysisView_, *depAnalysis(options), format,
                              out);
}

EngineResult AnalysisEngine::analyze(const analysis::PipelineOptions& options) {
  EngineResult result;
  // The stages were computed on the analysis view; copies of it share
  // the backend, so the result stays valid past the engine.
  result.trace = analysisView_;
  result.profile = profile();
  // Stage 2 on the profile already in hand: one counter event per stage
  // per query (a cold analyze is 4 misses, a warm one 4 hits).
  result.selection = impl_->dominantOf(analysisView_, *result.profile,
                                       options.dominant,
                                       options_.maxCacheEntries);
  result.segmentFunction =
      result.selection->candidateFunction(options.candidateIndex);

  const std::uint64_t sosKey =
      fingerprintSos(result.segmentFunction, options.sync);
  result.sos = impl_->getOrCompute(
      impl_->sos, sosKey, options_.maxCacheEntries, [&] {
        return analysis::analyzeSos(analysisView_, result.segmentFunction,
                                    options.sync, impl_->pool.get());
      });

  result.variation = impl_->getOrCompute(
      impl_->variation, fingerprintVariation(sosKey, options.variation),
      options_.maxCacheEntries, [&] {
        return analysis::analyzeVariation(*result.sos, options.variation,
                                          impl_->pool.get());
      });
  return result;
}

std::string AnalysisEngine::formatReport(
    const analysis::PipelineOptions& options) {
  const EngineResult r = analyze(options);
  return analysis::formatAnalysis(view_, *r.selection, *r.sos, *r.variation);
}

void AnalysisEngine::exportReport(analysis::ExportFormat format,
                                  std::ostream& out,
                                  const analysis::PipelineOptions& options) {
  const EngineResult r = analyze(options);
  analysis::exportReport(view_, *r.selection, *r.sos, *r.variation, format,
                         out);
}

CacheStats AnalysisEngine::cacheStats() const {
  CacheStats stats;
  stats.hits = impl_->hits.load(std::memory_order_relaxed);
  stats.misses = impl_->misses.load(std::memory_order_relaxed);
  stats.evictions = impl_->evictions.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(impl_->cacheMutex);
  stats.bytes = impl_->bytes;
  return stats;
}

util::ThreadPoolStats AnalysisEngine::poolStats() const {
  return impl_->pool != nullptr ? impl_->pool->stats()
                                : util::ThreadPoolStats{};
}

std::string formatCacheStats(const CacheStats& stats) {
  std::ostringstream os;
  os << "cache: hits=" << stats.hits << " misses=" << stats.misses
     << " evictions=" << stats.evictions << " bytes=" << stats.bytes;
  return os.str();
}

}  // namespace perfvar::engine
