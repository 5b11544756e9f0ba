#ifndef PERFVAR_ENGINE_ENGINE_HPP
#define PERFVAR_ENGINE_ENGINE_HPP

/// \file engine.hpp
/// AnalysisEngine: a long-lived analysis session over one trace.
///
/// analyzeTrace() recomputes the whole profile -> dominant -> SOS ->
/// variation chain on every call, even though interactive workflows touch
/// the same trace repeatedly: the Figure-5 drill-down re-runs stages 2-3
/// with a different candidateIndex, exporters re-render the same results,
/// and a query service answers many requests against one loaded trace.
/// AnalysisEngine loads the trace once and serves repeated queries from
/// one content-addressed cache table. Each stage result is an entry keyed
/// by a util::Hasher fingerprint of a tag naming its stage and:
///
///   stage        cache key (besides the stage tag)
///   ---------    ------------------------------------------------------
///   profile      (none; one per trace)
///   dominant     DominantOptions fields (+ classifier token if excluding)
///   SOS          segment function id + SyncClassifier::cacheToken()
///                (the entry also holds the variation basis of the SOS)
///   variation    SOS key + VariationOptions thresholds
///   dep          SyncClassifier token + Serialization/IdleWave thresholds
///   lint         (none; one per trace; its rules read the profile,
///                dominant and dep entries above, default options)
///   rendered     kept with the entry it renders: the SOS-matrix CSV in
///   answer       the SOS entry; text, JSON, iteration and hotspot CSV
///                in the variation entry under (format, dominant key);
///                dependency text, JSON and CSV in the dep entry
///
/// A drill-down that only changes candidateIndex therefore recomputes the
/// SOS stage (with its variation basis) and the variation stage for the
/// new segment function and reuses the cached profile and dominant
/// ranking; one that only moves a threshold re-classifies the cached
/// basis (analysis::classifyVariation) and recomputes no statistic; a
/// re-export with unchanged options recomputes nothing and renders
/// nothing: it copies the bytes kept with the entry into the caller's
/// stream, and sets nothing else on it. A kept render counts no hit, miss
/// or eviction; its bytes count in CacheStats::bytes and it is evicted
/// with its entry.
///
/// The execution option EngineOptions::threads does NOT change results
/// (see analyzeTrace's determinism guarantee), so it is deliberately
/// excluded from every fingerprint and results computed serially and in
/// parallel share cache entries. By the same guarantee, every cached
/// result is bit-identical to a fresh analyzeTrace() run.
///
/// Thread safety: all public member functions may be called concurrently.
/// Cache lookups and inserts synchronize on an internal mutex held only
/// for table operations; stage computation runs outside the lock. A missing
/// key is computed once: a thread that asks for a key another thread is
/// computing waits for that result (and counts a cache hit), so both
/// observe the same instance. Heavy
/// stages call the same pool-taking stage functions analyzeTrace() runs,
/// on one engine-owned util::ThreadPool that concurrent queries share:
/// each parallelChunks call waits only for its own ranges and rethrows
/// only its own errors. An engine with threads == 1 owns no pool and runs
/// every stage inline on the calling thread.
///
/// Capacity: the least recently used entry is evicted once the table
/// holds more than EngineOptions::maxCacheEntries of them (see there).
/// EngineResult holds shared_ptrs, so eviction never invalidates a
/// result a caller still owns.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "analysis/depgraph.hpp"
#include "analysis/export.hpp"
#include "analysis/pipeline.hpp"
#include "lint/lint.hpp"
#include "profile/profile.hpp"
#include "trace/trace.hpp"
#include "trace/view.hpp"
#include "util/thread_pool.hpp"

namespace perfvar::engine {

/// Construction-time options of an engine.
struct EngineOptions {
  /// Worker threads of the heavy stages: 1 (default) computes inline on
  /// the querying thread, 0 = hardware concurrency, else that many pool
  /// workers. Does not affect results (and is not part of cache keys).
  std::size_t threads = 1;
  /// Maximum number of cached derived-stage results (dominant, SOS,
  /// variation and dependency-analysis entries together; the profile and
  /// the lint report are exempt). 0 = unlimited.
  std::size_t maxCacheEntries = 64;
};

/// Cache observability counters (cumulative since construction).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Approximate bytes currently held by cached stage results.
  std::uint64_t bytes = 0;
};

/// One query answer: shared views of the cached stage results. Cheap to
/// copy; keeps the underlying stages (and the engine's trace) alive even
/// across cache eviction or engine destruction.
struct EngineResult {
  /// The view the stages were computed on. For a degraded (quarantined)
  /// input this is the filtered sub-view the analysis ran on; for a clean
  /// trace it is the engine's view itself. Shares backend ownership, so
  /// the result outlives the engine.
  trace::TraceView trace;
  std::shared_ptr<const profile::FlatProfile> profile;
  std::shared_ptr<const analysis::DominantSelection> selection;
  trace::FunctionId segmentFunction = trace::kInvalidFunction;
  /// Points into the SOS stage's cache entry and shares its ownership
  /// (the entry also holds the variation basis the report came from).
  std::shared_ptr<const analysis::SosResult> sos;
  std::shared_ptr<const analysis::VariationReport> variation;
};

/// Cached, thread-safe, repeatedly-queryable analysis session over one
/// trace. Non-copyable and non-movable: cached results reference the
/// engine's view, whose backend identity must stay stable. The engine is
/// its own lint report's lint::StageSource.
class AnalysisEngine final : private lint::StageSource {
public:
  /// Take ownership of `trace` (move it in; the engine wraps it in an
  /// owned TraceView that keeps it alive for cached results). A trace
  /// with quarantined ranks (a Salvage-mode load) is accepted: every
  /// stage then runs on the dropQuarantined sub-view, exactly like
  /// analyzeTrace(). If no rank survives, every stage throws while
  /// trace() and lintReport() still serve the raw trace.
  explicit AnalysisEngine(trace::Trace trace, EngineOptions options = {});

  /// Session over an existing view — the span-based entry point. Accepts
  /// any backend: a borrowed in-memory trace (which must outlive the
  /// engine), a shared/owned trace, or an out-of-core TraceView::openFile
  /// view, which is how 100k-rank sessions stay within memory budget.
  explicit AnalysisEngine(trace::TraceView view, EngineOptions options = {});

  ~AnalysisEngine();

  AnalysisEngine(const AnalysisEngine&) = delete;
  AnalysisEngine& operator=(const AnalysisEngine&) = delete;

  /// Load a PVT trace file eagerly and open a session over it. The file
  /// is memory-mapped and (for v2 files) its per-rank blocks are decoded
  /// on `options.threads` workers; the loaded trace is identical for
  /// every thread count.
  static AnalysisEngine fromFile(const std::string& path,
                                 EngineOptions options = {});

  const trace::TraceView& trace() const { return view_; }
  const EngineOptions& options() const { return options_; }

  /// The flat profile (stage 1); computed once per engine.
  std::shared_ptr<const profile::FlatProfile> profile();

  /// The lint report of the raw trace (quarantined ranks included),
  /// computed once per engine on the engine's workers and cached like the
  /// profile. Its rules read the engine's cached stages, so lint and a
  /// report compute each stage once. Gate with `->hasAtLeast(severity)`.
  std::shared_ptr<const lint::LintReport> lintReport();

  /// The dominant-function ranking (stage 2) under `options`.
  std::shared_ptr<const analysis::DominantSelection> dominant(
      const analysis::DominantOptions& options = {}) override;

  /// The cross-rank dependency analysis (happens-before graph, critical
  /// path, serialization bottlenecks, idle waves) under `options`. Cached
  /// like the other derived stages: the fingerprint covers the classifier
  /// token and the detector thresholds, never the execution options, so a
  /// warm re-query at any thread count is a cache hit returning the same
  /// byte-identical instance. Threads/pool in `options` are ignored;
  /// execution is governed by EngineOptions.
  std::shared_ptr<const analysis::DepAnalysis> depAnalysis(
      const analysis::DepAnalysisOptions& options = {}) override;

  /// formatDepAnalysis() of a (cached) dependency query.
  std::string formatDepReport(const analysis::DepAnalysisOptions& options = {});

  /// exportDepAnalysis() of a (cached) dependency query (Text/Json/Csv).
  void exportDepReport(analysis::ExportFormat format, std::ostream& out,
                       const analysis::DepAnalysisOptions& options = {});

  /// Full pipeline query: every stage is served from cache when its
  /// options fingerprint matches a previous query. Throws perfvar::Error
  /// exactly like analyzeTrace() (no dominant candidate, candidateIndex
  /// out of range). PipelineOptions::threads is ignored: execution is
  /// governed by EngineOptions.
  EngineResult analyze(const analysis::PipelineOptions& options = {});

  /// formatAnalysis() of a (cached) query: byte-identical to
  /// formatAnalysis(trace, analyzeTrace(trace, options)).
  std::string formatReport(const analysis::PipelineOptions& options = {});

  /// exportReport() of a (cached) query.
  void exportReport(analysis::ExportFormat format, std::ostream& out,
                    const analysis::PipelineOptions& options = {});

  /// Current cache counters (hits/misses/evictions cumulative).
  CacheStats cacheStats() const;

  /// Scheduling counters of the engine's worker pool (per-worker
  /// tasks/chunks/idle wakeups, cumulative since construction). No
  /// workers for an engine with threads == 1, which runs every stage
  /// inline.
  util::ThreadPoolStats poolStats() const;

private:
  /// lint::StageSource: the view the stages compute on (null when every
  /// rank is quarantined).
  const trace::TraceView* analysisTrace() override;

  /// The cached answer of exportReport/formatReport (exportDepReport/
  /// formatDepReport): analyze (depAnalysis), then the bytes kept with
  /// the stage entry they render.
  std::shared_ptr<const std::string> reportRender(
      analysis::ExportFormat format, const analysis::PipelineOptions& options);
  std::shared_ptr<const std::string> depRender(
      analysis::ExportFormat format,
      const analysis::DepAnalysisOptions& options);

  struct Impl;
  trace::TraceView view_;
  /// What the stages compute on: view_ itself for a clean trace, the
  /// dropQuarantined sub-view for a degraded one (built at construction),
  /// invalid when no rank survives.
  trace::TraceView analysisView_;
  EngineOptions options_;
  std::unique_ptr<Impl> impl_;
};

/// Render "cache: hits=... misses=... evictions=... bytes=..." (the
/// trace_tool `cache` query and CI smoke output).
std::string formatCacheStats(const CacheStats& stats);

}  // namespace perfvar::engine

#endif  // PERFVAR_ENGINE_ENGINE_HPP
