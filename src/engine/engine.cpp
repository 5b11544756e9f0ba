#include "engine/engine.hpp"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/binary_io.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace perfvar::engine {

namespace {

// Stage tags mixed into every fingerprint so keys of different stages can
// never collide even for identical option content.
constexpr std::uint64_t kTagProfile = 0x707266;     // "prf"
constexpr std::uint64_t kTagLint = 0x6c6e74;        // "lnt"
constexpr std::uint64_t kTagDominant = 0x646f6d;    // "dom"
constexpr std::uint64_t kTagSos = 0x736f73;         // "sos"
constexpr std::uint64_t kTagVariation = 0x766172;   // "var"
constexpr std::uint64_t kTagDep = 0x646570;         // "dep"
constexpr std::uint64_t kTagRender = 0x726e64;      // "rnd"

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

/// The renderKey of an answer held by the variation entry: the dominant
/// ranking is part of the text and JSON reports, and the variation key
/// does not cover it.
std::uint64_t variationRenderKey(analysis::ExportFormat format,
                                 const analysis::DominantOptions& dominant) {
  return util::Hasher{}
      .u64(static_cast<std::uint64_t>(format))
      .u64(fingerprintDominant(dominant))
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

/// The SOS stage's cache entry: the SOS result and the threshold-free
/// variation basis over it, so a query that only moves a threshold
/// re-classifies the basis instead of recomputing its statistics.
struct SosEntry {
  analysis::SosResult sos;
  analysis::VariationBasis basis;
};

std::size_t approxBytes(const SosEntry& e) {
  return approxBytes(e.sos) +
         e.basis.iterations.capacity() * sizeof(analysis::IterationStats) +
         e.basis.processes.capacity() * sizeof(analysis::ProcessStats) +
         e.basis.processesBySos.capacity() * sizeof(trace::ProcessId) +
         (e.basis.globalZ.capacity() + e.basis.iterationZ.capacity()) *
             sizeof(double);
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

/// Copy a kept answer into the caller's stream.
void writeAnswer(const std::string& answer, std::ostream& out) {
  out.write(answer.data(), static_cast<std::streamsize>(answer.size()));
}

}  // namespace

struct AnalysisEngine::Impl {
  /// One cached value: a stage result of the type its key's tag names.
  struct Entry {
    std::shared_ptr<const void> value;
    std::uint64_t lastUse = 0;
    /// The value's bytes plus those of its renders.
    std::size_t bytes = 0;
    /// Answers rendered from `value`, by renderKey (see renderOf). They
    /// leave with the entry.
    std::vector<std::pair<std::uint64_t, std::shared_ptr<const std::string>>>
        renders;
  };

  /// Guards table, computing, useClock and bytes. Held only for table
  /// lookups/inserts, never while a stage computes or an answer renders.
  std::mutex cacheMutex;
  /// Every cached stage result, by stage-tagged fingerprint.
  std::unordered_map<std::uint64_t, Entry> table;
  /// The keys a caller is computing (a render's key is its slotKey);
  /// another caller that misses on one waits on `computed` instead of
  /// computing it again.
  std::set<std::uint64_t> computing;
  std::condition_variable computed;
  std::uint64_t useClock = 0;
  std::uint64_t bytes = 0;

  /// EngineOptions::maxCacheEntries.
  std::size_t maxEntries = 0;
  /// The profile and the lint report, one of each per engine, are never
  /// evicted and do not count toward maxEntries.
  const std::uint64_t profileKey = util::Hasher{}.u64(kTagProfile).digest();
  const std::uint64_t lintKey = util::Hasher{}.u64(kTagLint).digest();

  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> evictions{0};

  /// Workers of the heavy stages (null when EngineOptions::threads == 1).
  /// Concurrent queries share it: every parallelChunks call waits only
  /// for its own ranges.
  std::unique_ptr<util::ThreadPool> pool;

  /// Drop the least recently used evictable entry once there are more
  /// than maxEntries. Caller holds cacheMutex, right after a store: one
  /// store adds one entry, so at most one leaves.
  void evictIfNeeded() {
    if (maxEntries == 0) {
      return;
    }
    std::size_t evictable = 0;
    auto victim = table.end();
    for (auto it = table.begin(); it != table.end(); ++it) {
      if (it->first == profileKey || it->first == lintKey) {
        continue;
      }
      ++evictable;
      if (victim == table.end() ||
          it->second.lastUse < victim->second.lastUse) {
        victim = it;
      }
    }
    if (evictable > maxEntries) {
      bytes -= victim->second.bytes;
      table.erase(victim);
      evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// The compute-once protocol of stages and renders. Under the lock,
  /// `find()` returns the cached value or null. On null, one caller
  /// claims `slot`, computes outside the lock and `store`s the value
  /// under it; a caller that misses while another computes the same slot
  /// waits for that store and looks again, so concurrent queries never
  /// hold two copies of one stage's working memory. A failed compute
  /// leaves the slot free; the next waiter computes it (and fails) in
  /// turn. Stages only wait on stages they read and renders on nothing,
  /// so no cycle can form.
  template <typename Find, typename Compute, typename Store>
  auto computeOnce(std::uint64_t slot, Find&& find, Compute&& compute,
                   Store&& store) {
    std::unique_lock<std::mutex> lock(cacheMutex);
    while (true) {
      if (auto found = find()) {
        return found;
      }
      if (computing.insert(slot).second) {
        break;
      }
      computed.wait(lock);
    }
    lock.unlock();
    decltype(find()) value;
    try {
      value = compute();
    } catch (...) {
      lock.lock();
      computing.erase(slot);
      computed.notify_all();
      throw;
    }
    lock.lock();
    computing.erase(slot);
    computed.notify_all();
    store(value);
    return value;
  }

  /// The cache protocol of every stage: a hit (waiting for another
  /// caller's compute included) counts a hit, a compute counts a miss.
  /// `key` names the type T of the value `compute` returns.
  template <typename Compute, typename T = std::invoke_result_t<Compute&>>
  std::shared_ptr<const T> getOrCompute(std::uint64_t key, Compute&& compute) {
    return computeOnce(
        key,
        [&]() -> std::shared_ptr<const T> {
          const auto it = table.find(key);
          if (it == table.end()) {
            return nullptr;
          }
          it->second.lastUse = ++useClock;
          hits.fetch_add(1, std::memory_order_relaxed);
          return std::static_pointer_cast<const T>(it->second.value);
        },
        [&] {
          misses.fetch_add(1, std::memory_order_relaxed);
          return std::make_shared<const T>(compute());
        },
        [&](const std::shared_ptr<const T>& value) {
          Entry& entry = table[key];
          entry.value = value;
          entry.lastUse = ++useClock;
          entry.bytes = approxBytes(*value);
          bytes += entry.bytes;
          evictIfNeeded();
        });
  }

  /// The answer `draw` renders from the value cached under `key`, kept
  /// with that entry under `renderKey`: rendered once while the entry
  /// stays resident, then served as a copy. Its bytes count towards the
  /// entry's and the cache's. It counts no hit, miss or eviction and does
  /// not touch the entry's LRU position (the stage lookup before it
  /// did). If the entry was evicted since that lookup, the render is
  /// returned unkept: `draw` reads the caller's own stage results.
  template <typename Draw>
  std::shared_ptr<const std::string> renderOf(std::uint64_t key,
                                              std::uint64_t renderKey,
                                              Draw&& draw) {
    const std::uint64_t slotKey =
        util::Hasher{}.u64(kTagRender).u64(key).u64(renderKey).digest();
    return computeOnce(
        slotKey,
        [&]() -> std::shared_ptr<const std::string> {
          const auto it = table.find(key);
          if (it != table.end()) {
            for (const auto& [k, kept] : it->second.renders) {
              if (k == renderKey) {
                return kept;
              }
            }
          }
          return nullptr;
        },
        [&] {
          std::ostringstream os;
          draw(os);
          std::string rendered = std::move(os).str();
          rendered.shrink_to_fit();  // the stream grew it geometrically
          return std::make_shared<const std::string>(std::move(rendered));
        },
        [&](const std::shared_ptr<const std::string>& value) {
          const auto it = table.find(key);
          if (it != table.end()) {
            it->second.renders.emplace_back(renderKey, value);
            it->second.bytes += value->size();
            bytes += value->size();
          }
        });
  }

  /// Stage 2 over an already-fetched profile, shared by dominant() and
  /// analyze() so each counts one cache event per stage.
  std::shared_ptr<const analysis::DominantSelection> dominantOf(
      const trace::TraceView& view, const profile::FlatProfile& prof,
      const analysis::DominantOptions& options) {
    return getOrCompute(fingerprintDominant(options), [&] {
      return analysis::selectDominantFunction(view, prof, options);
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
  impl_->maxEntries = options_.maxCacheEntries;
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
  return impl_->getOrCompute(impl_->profileKey, [&] {
    return profile::FlatProfile::build(analyzable(analysisView_),
                                       impl_->pool.get());
  });
}

std::shared_ptr<const lint::LintReport> AnalysisEngine::lintReport() {
  return impl_->getOrCompute(impl_->lintKey, [&] {
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
  return impl_->dominantOf(analysisView_, *profile(), options);
}

std::shared_ptr<const analysis::DepAnalysis> AnalysisEngine::depAnalysis(
    const analysis::DepAnalysisOptions& options) {
  return impl_->getOrCompute(fingerprintDep(options), [&] {
    analysis::DepAnalysisOptions effective = options;
    effective.threads = 1;  // the engine's pool, or inline
    effective.pool = impl_->pool.get();
    return analysis::analyzeDependencies(analyzable(analysisView_), effective);
  });
}

std::shared_ptr<const std::string> AnalysisEngine::depRender(
    analysis::ExportFormat format,
    const analysis::DepAnalysisOptions& options) {
  const std::shared_ptr<const analysis::DepAnalysis> dep = depAnalysis(options);
  return impl_->renderOf(fingerprintDep(options),
                         static_cast<std::uint64_t>(format),
                         [&](std::ostream& out) {
                           analysis::exportDepAnalysis(analysisView_, *dep,
                                                       format, out);
                         });
}

std::string AnalysisEngine::formatDepReport(
    const analysis::DepAnalysisOptions& options) {
  return *depRender(analysis::ExportFormat::Text, options);
}

void AnalysisEngine::exportDepReport(analysis::ExportFormat format,
                                     std::ostream& out,
                                     const analysis::DepAnalysisOptions& options) {
  writeAnswer(*depRender(format, options), out);
}

EngineResult AnalysisEngine::analyze(const analysis::PipelineOptions& options) {
  EngineResult result;
  // The stages were computed on the analysis view; copies of it share
  // the backend, so the result stays valid past the engine.
  result.trace = analysisView_;
  result.profile = profile();
  // Stage 2 on the profile already in hand: one counter event per stage
  // per query (a cold analyze is 4 misses, a warm one 4 hits).
  result.selection =
      impl_->dominantOf(analysisView_, *result.profile, options.dominant);
  result.segmentFunction =
      result.selection->candidateFunction(options.candidateIndex);

  const std::uint64_t sosKey =
      fingerprintSos(result.segmentFunction, options.sync);
  const std::shared_ptr<const SosEntry> sos =
      impl_->getOrCompute(sosKey, [&] {
        analysis::SosResult computed =
            analysis::analyzeSos(analysisView_, result.segmentFunction,
                                 options.sync, impl_->pool.get());
        analysis::VariationBasis basis =
            analysis::variationBasis(computed, impl_->pool.get());
        return SosEntry{std::move(computed), std::move(basis)};
      });
  // Shares the entry's ownership: the result keeps the basis alive too.
  result.sos = std::shared_ptr<const analysis::SosResult>(sos, &sos->sos);

  result.variation = impl_->getOrCompute(
      fingerprintVariation(sosKey, options.variation), [&] {
        return analysis::classifyVariation(sos->sos, sos->basis,
                                           options.variation);
      });
  return result;
}

std::shared_ptr<const std::string> AnalysisEngine::reportRender(
    analysis::ExportFormat format, const analysis::PipelineOptions& options) {
  const EngineResult r = analyze(options);
  const auto draw = [&](std::ostream& out) {
    analysis::exportReport(view_, *r.selection, *r.sos, *r.variation, format,
                           out);
  };
  const std::uint64_t sosKey = fingerprintSos(r.segmentFunction, options.sync);
  if (format == analysis::ExportFormat::Csv) {
    // The SOS matrix reads the SOS stage alone.
    return impl_->renderOf(sosKey, static_cast<std::uint64_t>(format), draw);
  }
  return impl_->renderOf(fingerprintVariation(sosKey, options.variation),
                         variationRenderKey(format, options.dominant), draw);
}

std::string AnalysisEngine::formatReport(
    const analysis::PipelineOptions& options) {
  return *reportRender(analysis::ExportFormat::Text, options);
}

void AnalysisEngine::exportReport(analysis::ExportFormat format,
                                  std::ostream& out,
                                  const analysis::PipelineOptions& options) {
  writeAnswer(*reportRender(format, options), out);
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
