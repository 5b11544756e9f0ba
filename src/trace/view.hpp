#ifndef PERFVAR_TRACE_VIEW_HPP
#define PERFVAR_TRACE_VIEW_HPP

/// \file view.hpp
/// Read-only, span-based trace access: trace::TraceView / EventSpan.
///
/// TraceView is the data-access seam of every analysis stage. It abstracts
/// over where the event streams live:
///
///   - **Eager** backends wrap an in-memory Trace (borrowed, owned or
///     shared); rank() hands out zero-copy spans over its vectors.
///   - The **out-of-core** backend (openFile) memory-maps a PVTF v2 file
///     and decodes per-rank blocks on demand. It keeps the decoded shards
///     of a resident set bounded by a byte budget, so analyzing a
///     100k-rank trace never materializes more than that set plus the
///     shards pinned at the moment. Decoded events are bit-identical to an
///     eager load (both paths run the same block codec), so every analysis
///     report is byte-identical between the two.
///
/// Every analysis stage is a sweep over the ranks. For a repeated sweep
/// the best policy keeps a fixed set of shards, so the resident set is
/// fixed when the view opens: the ranks in index order, each kept if its
/// decoded size (from the block table) still fits the budget. A rank that
/// does not fit is skipped, and a later, smaller rank may still fit, so
/// resident bytes never exceed the budget. A resident rank is decoded at
/// its first pin and kept until the view goes; a later pin is a hit that
/// takes no lock and allocates nothing. A rank outside the set is decoded
/// for each pin and owned by that pin alone. So a sweep after the first
/// decodes exactly the ranks outside the set, at every thread count and
/// in every pin order. A hit promotes nothing.
///
/// A TraceView is a cheap value type (one shared_ptr); copies share the
/// backend and its resident shards. Borrowed views (the implicit
/// conversion from `const Trace&`) have exactly the lifetime semantics
/// the historical `const Trace&` parameters had: the Trace must outlive
/// the view.
///
/// rank() returns a RankPin holding shared ownership of the decoded
/// storage; the memory bound is the budget plus the shards of the ranks
/// outside the set that are pinned at the moment.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/binary_io.hpp"
#include "trace/trace.hpp"

namespace perfvar::trace {

namespace detail {
class TraceViewBackend;
}  // namespace detail

/// Read-only span over one process's time-sorted events.
class EventSpan {
public:
  EventSpan() = default;
  EventSpan(const Event* data, std::size_t size) : data_(data), size_(size) {}

  const Event* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Event* begin() const { return data_; }
  const Event* end() const { return data_ + size_; }
  const Event& operator[](std::size_t i) const { return data_[i]; }
  const Event& front() const { return data_[0]; }
  const Event& back() const { return data_[size_ - 1]; }

private:
  const Event* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Pinned, decoded event stream of one rank. The pin shares ownership of
/// the backend and, for a rank outside the resident set, owns the shard
/// decoded for it, so the events stay valid for as long as the pin lives.
class RankPin {
public:
  RankPin() = default;

  const std::string& name() const { return *name_; }
  EventSpan events() const { return span_; }

private:
  friend class TraceView;
  friend class detail::TraceViewBackend;
  RankPin(std::shared_ptr<const void> hold, const std::string* name,
          EventSpan span)
      : hold_(std::move(hold)), name_(name), span_(span) {}

  std::shared_ptr<const void> hold_;  ///< decoded storage (+ backend)
  const std::string* name_ = nullptr;
  EventSpan span_;
};

/// Shard-cache telemetry of a view (all zero for eager backends).
struct TraceViewStats {
  std::uint64_t shardDecodes = 0;  ///< blocks decoded from the file
  std::uint64_t shardHits = 0;     ///< rank() calls served from the set
  /// Decoded shards the cache did not keep: the pins of ranks outside the
  /// resident set.
  std::uint64_t shardEvictions = 0;
  std::uint64_t residentBytes = 0;  ///< decoded bytes the set keeps
  /// High-water mark of the above; equal to it, since a resident shard is
  /// never evicted.
  std::uint64_t peakResidentBytes = 0;
};

/// Options of TraceView::openFile().
struct TraceViewOptions {
  /// Budget in bytes of the resident set of decoded shards, fixed at open
  /// (see the file comment): the ranks in index order, each kept if it
  /// still fits. There is no overshoot, so resident bytes never exceed the
  /// budget. 0 keeps no events: every pin of a non-empty rank decodes it.
  std::size_t shardBudgetBytes = 256ull << 20;
  /// Strict (default): header/table/defs verify at open, block checksums
  /// verify at first access — a corrupt block throws from rank().
  /// Salvage: every block is additionally verified and classified at open
  /// (one streaming pass, bounded memory); faulty ranks are quarantined
  /// with their balanced salvaged prefix kept resident, byte-identical to
  /// an eager salvage load.
  RecoveryMode recovery = RecoveryMode::Strict;
  /// When set, receives the per-rank outcome of a Salvage open.
  LoadReport* report = nullptr;
};

/// Read-only view of a trace over an eager or out-of-core backend.
class TraceView {
public:
  /// Invalid view; every accessor throws. valid() distinguishes.
  TraceView() = default;

  /// Borrowed view over an in-memory trace (implicit — existing
  /// `const Trace&` call sites keep working). The trace must outlive the
  /// view and must not be mutated while viewed.
  TraceView(const Trace& trace);  // NOLINT(google-explicit-constructor)

  /// Deleted: binding a view to a temporary Trace would dangle. Use
  /// TraceView::owned(std::move(trace)) to transfer ownership.
  TraceView(Trace&& trace) = delete;

  /// Explicit spelling of the borrowed conversion.
  static TraceView of(const Trace& trace) { return TraceView(trace); }

  /// View sharing ownership of an in-memory trace.
  static TraceView shared(std::shared_ptr<const Trace> trace);

  /// View taking ownership of an in-memory trace.
  static TraceView owned(Trace&& trace);

  /// Out-of-core view of a PVTF v2 file: mmap + per-rank lazy decode into
  /// a resident set of decoded shards fixed at open. v1 files (no
  /// per-rank block table) are materialized eagerly behind the same
  /// interface. Throws perfvar::Error on open faults (see
  /// TraceViewOptions::recovery).
  static TraceView openFile(const std::string& path,
                            const TraceViewOptions& options = {});

  bool valid() const { return backend_ != nullptr; }

  std::uint64_t resolution() const;
  double toSeconds(Timestamp t) const {
    return ticksToSeconds(t, resolution());
  }
  const FunctionRegistry& functions() const;
  const MetricRegistry& metrics() const;
  std::size_t processCount() const;
  const std::string& processName(ProcessId p) const;

  /// Declared event count of one rank (from the block table for the lazy
  /// backend — no decode).
  std::uint64_t eventCount(ProcessId p) const;
  /// Total declared events across all ranks.
  std::size_t eventCount() const;

  /// Ranks quarantined by a salvage open/load, sorted by process id.
  const std::vector<QuarantinedRank>& quarantined() const;
  bool isQuarantined(ProcessId p) const;

  /// Earliest/latest event timestamp (0 for an empty trace). Lazily
  /// computed — one bounded streaming pass for the out-of-core backend —
  /// then cached on the backend.
  Timestamp startTime() const;
  Timestamp endTime() const;
  double durationSeconds() const {
    return toSeconds(endTime() - startTime());
  }

  /// Pin rank `p`: decode (or fetch from the resident set) its event shard
  /// and return a handle that keeps the decoded events alive. Thread-safe;
  /// a pin of a resident rank takes no lock.
  RankPin rank(ProcessId p) const;

  /// Sub-view over a subset of ranks with the exact trace::selectProcesses
  /// semantics: dense renumbering, messages to dropped peers removed,
  /// surviving peer refs remapped. Eager backends materialize the filtered
  /// trace; the out-of-core backend filters at shard-decode time.
  TraceView selectProcesses(const std::vector<ProcessId>& processes) const;

  /// Sub-view without the quarantined ranks (identity when none are).
  TraceView dropQuarantined() const;

  /// The underlying in-memory Trace for eager backends, nullptr for the
  /// out-of-core ones. Transitional escape hatch for consumers not yet
  /// span-migrated (vis, text dump).
  const Trace* eagerOrNull() const;

  /// Materialize the whole view as an in-memory Trace (decodes every
  /// shard; O(total events) memory — small traces only).
  Trace materialize() const;

  /// Shard-cache counters (zeros for eager backends). Thread-safe.
  TraceViewStats stats() const;

private:
  explicit TraceView(std::shared_ptr<const detail::TraceViewBackend> backend)
      : backend_(std::move(backend)) {}

  const detail::TraceViewBackend& backend() const;

  std::shared_ptr<const detail::TraceViewBackend> backend_;
};

}  // namespace perfvar::trace

#endif  // PERFVAR_TRACE_VIEW_HPP
