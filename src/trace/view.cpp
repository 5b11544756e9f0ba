/// \file view.cpp
/// TraceView backends: eager (borrowed/owned/shared in-memory Trace),
/// out-of-core PVTF v2 (mmap + per-rank lazy decode into a resident set of
/// decoded shards fixed at open), and the filtered sub-view over a lazy
/// parent.
///
/// Byte-identity between the eager and lazy paths holds by construction:
/// both run the same per-block codec (detail::decodeV2Block /
/// salvageV2Block, shared with binary_v2.cpp), so the decoded events — and
/// with them every downstream report — are bit-identical.

#include "trace/view.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "trace/binary_format.hpp"
#include "trace/filter.hpp"
#include "util/error.hpp"
#include "util/mmap_file.hpp"

namespace perfvar::trace {

namespace detail {

namespace {

/// Events decoded for one pin alone. The pin owns them and the backend,
/// which holds the rank's name.
struct OwnedShard {
  std::shared_ptr<const TraceViewBackend> backend;
  std::vector<Event> events;
};

}  // namespace

/// Abstract storage backend of a TraceView. Thread-safe: rank() and the
/// metadata accessors may be called concurrently from pool workers.
class TraceViewBackend {
public:
  virtual ~TraceViewBackend() = default;

  virtual std::uint64_t resolution() const = 0;
  virtual const FunctionRegistry& functions() const = 0;
  virtual const MetricRegistry& metrics() const = 0;
  virtual std::size_t processCount() const = 0;
  virtual const std::string& processName(ProcessId p) const = 0;
  virtual std::uint64_t eventCount(ProcessId p) const = 0;
  virtual const std::vector<QuarantinedRank>& quarantined() const = 0;
  virtual RankPin rank(ProcessId p,
                       std::shared_ptr<const TraceViewBackend> self) const = 0;
  virtual const Trace* eagerOrNull() const { return nullptr; }
  virtual TraceViewStats stats() const { return {}; }

  /// Cached [startTime, endTime]; computed once per backend.
  std::pair<Timestamp, Timestamp> timeBounds(
      const std::shared_ptr<const TraceViewBackend>& self) const {
    std::lock_guard<std::mutex> lock(boundsMutex_);
    if (!boundsValid_) {
      const auto bounds = computeTimeBounds(self);
      start_ = bounds.first;
      end_ = bounds.second;
      boundsValid_ = true;
    }
    return {start_, end_};
  }

protected:
  /// A pin of events the backend keeps for its whole life: it shares the
  /// backend through an aliasing pointer and allocates nothing.
  static RankPin keptPin(std::shared_ptr<const TraceViewBackend> self,
                         const std::string* name,
                         const std::vector<Event>& events) {
    return RankPin(std::shared_ptr<const void>(std::move(self), &events),
                   name, EventSpan(events.data(), events.size()));
  }

  /// A pin that alone owns its decoded events.
  static RankPin ownedPin(std::shared_ptr<OwnedShard> shard,
                          const std::string* name) {
    const EventSpan span(shard->events.data(), shard->events.size());
    return RankPin(std::move(shard), name, span);
  }

  /// One streaming pass over the ranks (bounded by the resident set for
  /// the lazy backends). Overridden by the eager backend to reuse the
  /// Trace's own cached bounds.
  virtual std::pair<Timestamp, Timestamp> computeTimeBounds(
      const std::shared_ptr<const TraceViewBackend>& self) const {
    Timestamp start = 0;
    Timestamp end = 0;
    bool any = false;
    for (ProcessId p = 0; p < processCount(); ++p) {
      // The pin must outlive the span: a temporary pin would free the
      // decoded shard before front()/back() read it.
      const RankPin pin = rank(p, self);
      const EventSpan events = pin.events();
      if (events.empty()) {
        continue;
      }
      start = any ? std::min(start, events.front().time)
                  : events.front().time;
      end = std::max(end, events.back().time);
      any = true;
    }
    return {start, end};
  }

private:
  mutable std::mutex boundsMutex_;
  mutable bool boundsValid_ = false;
  mutable Timestamp start_ = 0;
  mutable Timestamp end_ = 0;
};

namespace {

// ---- eager backend --------------------------------------------------------

/// In-memory Trace, borrowed or (shared-)owned. rank() is a zero-copy
/// span over the Trace's vectors.
class EagerBackend final : public TraceViewBackend {
public:
  explicit EagerBackend(const Trace* borrowed) : trace_(borrowed) {}
  explicit EagerBackend(std::shared_ptr<const Trace> owned)
      : owned_(std::move(owned)), trace_(owned_.get()) {}

  std::uint64_t resolution() const override { return trace_->resolution; }
  const FunctionRegistry& functions() const override {
    return trace_->functions;
  }
  const MetricRegistry& metrics() const override { return trace_->metrics; }
  std::size_t processCount() const override { return trace_->processCount(); }
  const std::string& processName(ProcessId p) const override {
    return trace_->processes[p].name;
  }
  std::uint64_t eventCount(ProcessId p) const override {
    return trace_->processes[p].events.size();
  }
  const std::vector<QuarantinedRank>& quarantined() const override {
    return trace_->quarantined;
  }
  RankPin rank(ProcessId p,
               std::shared_ptr<const TraceViewBackend> self) const override {
    const ProcessTrace& proc = trace_->processes[p];
    return keptPin(std::move(self), &proc.name, proc.events);
  }
  const Trace* eagerOrNull() const override { return trace_; }

protected:
  std::pair<Timestamp, Timestamp> computeTimeBounds(
      const std::shared_ptr<const TraceViewBackend>&) const override {
    return {trace_->startTime(), trace_->endTime()};
  }

private:
  std::shared_ptr<const Trace> owned_;  ///< null when borrowed
  const Trace* trace_;
};

// ---- out-of-core v2 backend -----------------------------------------------

/// mmapped PVTF v2 file with per-rank lazy decode into a resident set
/// fixed at open (see view.hpp). Each rank has a slot; a resident rank's
/// first pin decodes its shard and publishes it with a compare-exchange,
/// and the shard stays until the backend goes, so a later pin is one
/// acquire load and takes no lock. A rank outside the set is decoded for
/// each pin and owned by that pin alone. Salvaged (quarantined) ranks keep
/// their balanced prefix in their slot from open on, outside the budget —
/// they are rare and small by definition.
class LazyV2Backend final : public TraceViewBackend {
public:
  /// Classifies every block first when `salvage` is set (RecoveryMode::
  /// Salvage), then fixes the resident set.
  LazyV2Backend(util::FileView file, V2Summary summary,
                std::size_t budgetBytes, LoadReport* salvage)
      : file_(std::move(file)),
        summary_(std::move(summary)),
        slots_(std::make_unique<Slot[]>(summary_.blocks.size())) {
    if (salvage != nullptr) {
      classifySalvage(*salvage);
    }
    // Ranks in index order; each that still fits the budget is resident.
    // A rank that does not fit is skipped, and a later, smaller one may
    // still fit, so resident bytes never exceed the budget.
    std::size_t remaining = budgetBytes;
    for (std::size_t i = 0; i < summary_.blocks.size(); ++i) {
      const std::uint64_t events = summary_.blocks[i].events;
      Slot& slot = slots_[i];
      if (!slot.salvaged && events <= remaining / sizeof(Event)) {
        slot.resident = true;
        remaining -= static_cast<std::size_t>(events) * sizeof(Event);
      }
    }
  }

  std::uint64_t resolution() const override { return summary_.resolution; }
  const FunctionRegistry& functions() const override {
    return summary_.functions;
  }
  const MetricRegistry& metrics() const override { return summary_.metrics; }
  std::size_t processCount() const override { return summary_.blocks.size(); }
  const std::string& processName(ProcessId p) const override {
    return summary_.processNames[p];
  }
  std::uint64_t eventCount(ProcessId p) const override {
    if (slots_[p].salvaged) {
      // The balanced salvaged prefix.
      return slots_[p].shard.load(std::memory_order_relaxed)->size();
    }
    return summary_.blocks[p].events;  // from the block table, no decode
  }
  const std::vector<QuarantinedRank>& quarantined() const override {
    return quarantined_;
  }

  RankPin rank(ProcessId p,
               std::shared_ptr<const TraceViewBackend> self) const override {
    PERFVAR_REQUIRE(p < summary_.blocks.size(),
                    "TraceView::rank: process id out of range");
    Slot& slot = slots_[p];
    const std::string* name = &summary_.processNames[p];
    const std::vector<Event>* shard =
        slot.shard.load(std::memory_order_acquire);
    if (shard != nullptr) {
      if (!slot.salvaged) {
        slot.hits.fetch_add(1, std::memory_order_relaxed);
      }
      return keptPin(std::move(self), name, *shard);
    }
    if (!slot.resident) {
      // Outside the set: a shard the cache does not keep, so one decode and
      // one eviction.
      auto owned = std::make_shared<OwnedShard>();
      decodeV2Block(file_.data(), summary_.blocks[p], p, owned->events);
      owned->backend = std::move(self);
      decodes_.fetch_add(1, std::memory_order_relaxed);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      return ownedPin(std::move(owned), name);
    }
    auto decoded = std::make_unique<std::vector<Event>>();
    decodeV2Block(file_.data(), summary_.blocks[p], p, *decoded);
    if (slot.shard.compare_exchange_strong(shard, decoded.get(),
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      shard = decoded.release();
      decodes_.fetch_add(1, std::memory_order_relaxed);
      residentBytes_.fetch_add(shard->size() * sizeof(Event),
                               std::memory_order_relaxed);
    } else {
      // Another pin published the rank first: drop this decode, count a
      // hit.
      slot.hits.fetch_add(1, std::memory_order_relaxed);
    }
    return keptPin(std::move(self), name, *shard);
  }

  TraceViewStats stats() const override {
    TraceViewStats s;
    s.shardDecodes = decodes_.load(std::memory_order_relaxed);
    s.shardEvictions = evictions_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < summary_.blocks.size(); ++i) {
      s.shardHits += slots_[i].hits.load(std::memory_order_relaxed);
    }
    // A resident shard is never evicted, so the peak is the current total.
    s.residentBytes = residentBytes_.load(std::memory_order_relaxed);
    s.peakResidentBytes = s.residentBytes;
    return s;
  }

private:
  /// One rank's decoded shard. `resident` and `salvaged` are fixed at
  /// open; `shard` is published at most once and owned by the slot.
  struct Slot {
    ~Slot() { delete shard.load(std::memory_order_relaxed); }

    std::atomic<const std::vector<Event>*> shard{nullptr};
    std::atomic<std::uint64_t> hits{0};  ///< summed by stats()
    bool resident = false;
    bool salvaged = false;  ///< `shard` holds the salvaged prefix
  };

  /// Salvage classification pass: run every block through the shared
  /// salvage codec, keep only the faulty ranks' balanced events, discard
  /// healthy decodes. One rank's decode is in flight at a time, so peak
  /// memory is one shard.
  void classifySalvage(LoadReport& report) {
    report = LoadReport{};
    report.version = kBinaryFormatV2;
    report.mode = RecoveryMode::Salvage;
    report.ranks.assign(summary_.blocks.size(), RankLoadStatus{});
    for (std::size_t i = 0; i < summary_.blocks.size(); ++i) {
      RankLoadStatus& st = report.ranks[i];
      st.process = summary_.processNames[i];
      std::vector<Event> events;
      salvageV2Block(file_.data(), file_.size(), summary_.blocks[i],
                     static_cast<ProcessId>(i), summary_.functions.size(),
                     summary_.metrics.size(), summary_.blocks.size(), st,
                     events);
      if (!st.ok) {
        quarantined_.push_back(QuarantinedRank{
            static_cast<ProcessId>(i), st.process, st.error, st.bytesSalvaged,
            st.eventsSalvaged, st.eventsDropped});
        slots_[i].shard.store(new std::vector<Event>(std::move(events)),
                              std::memory_order_relaxed);
        slots_[i].salvaged = true;
      }
    }
  }

  util::FileView file_;
  V2Summary summary_;
  std::vector<QuarantinedRank> quarantined_;
  std::unique_ptr<Slot[]> slots_;  ///< one per rank
  mutable std::atomic<std::uint64_t> decodes_{0};
  mutable std::atomic<std::uint64_t> evictions_{0};
  mutable std::atomic<std::uint64_t> residentBytes_{0};
};

// ---- filtered sub-view ----------------------------------------------------

/// selectProcesses() over a lazy parent: dense renumbering, messages to
/// dropped peers removed, surviving peer refs remapped — the exact
/// per-event semantics of trace::selectProcesses, applied at shard-decode
/// time. (Eager parents materialize instead; see TraceView::selectProcesses.)
class FilteredBackend final : public TraceViewBackend {
public:
  FilteredBackend(std::shared_ptr<const TraceViewBackend> parent,
                  std::vector<ProcessId> keep)
      : parent_(std::move(parent)), keep_(std::move(keep)) {
    names_.reserve(keep_.size());
    for (std::size_t i = 0; i < keep_.size(); ++i) {
      PERFVAR_REQUIRE(keep_[i] < parent_->processCount(),
                      "selectProcesses: invalid process id");
      PERFVAR_REQUIRE(
          remap_.emplace(keep_[i], static_cast<ProcessId>(i)).second,
          "selectProcesses: duplicate process id");
      names_.push_back(parent_->processName(keep_[i]));
    }
    filteredCounts_.assign(keep_.size(), kUnknownCount);
  }

  std::uint64_t resolution() const override { return parent_->resolution(); }
  const FunctionRegistry& functions() const override {
    return parent_->functions();
  }
  const MetricRegistry& metrics() const override {
    return parent_->metrics();
  }
  std::size_t processCount() const override { return keep_.size(); }
  const std::string& processName(ProcessId p) const override {
    return names_[p];
  }
  std::uint64_t eventCount(ProcessId p) const override {
    {
      std::lock_guard<std::mutex> lock(countsMutex_);
      if (filteredCounts_[p] != kUnknownCount) {
        return filteredCounts_[p];
      }
    }
    // Message-drop filtering changes the count; decode once to learn it.
    const std::uint64_t n = filteredEvents(p).size();
    std::lock_guard<std::mutex> lock(countsMutex_);
    filteredCounts_[p] = n;
    return n;
  }
  const std::vector<QuarantinedRank>& quarantined() const override {
    return noQuarantine_;  // the filter is how quarantined ranks are shed
  }

  RankPin rank(ProcessId p,
               std::shared_ptr<const TraceViewBackend> self) const override {
    auto owned = std::make_shared<OwnedShard>();
    owned->events = filteredEvents(p);
    owned->backend = std::move(self);
    return ownedPin(std::move(owned), &names_[p]);
  }

  TraceViewStats stats() const override { return parent_->stats(); }

private:
  static constexpr std::uint64_t kUnknownCount = ~std::uint64_t{0};

  std::vector<Event> filteredEvents(ProcessId p) const {
    const RankPin parentPin = parent_->rank(keep_[p], parent_);
    const EventSpan in = parentPin.events();
    std::vector<Event> out;
    out.reserve(in.size());
    for (const Event& e : in) {
      if (e.kind == EventKind::MpiSend || e.kind == EventKind::MpiRecv) {
        const auto it = remap_.find(e.ref);
        if (it == remap_.end()) {
          continue;  // peer removed
        }
        Event remapped = e;
        remapped.ref = it->second;
        out.push_back(remapped);
      } else {
        out.push_back(e);
      }
    }
    return out;
  }

  std::shared_ptr<const TraceViewBackend> parent_;
  std::vector<ProcessId> keep_;  ///< parent rank of each view rank
  std::unordered_map<ProcessId, ProcessId> remap_;  ///< parent id -> view id
  std::vector<std::string> names_;
  std::vector<QuarantinedRank> noQuarantine_;
  mutable std::mutex countsMutex_;
  mutable std::vector<std::uint64_t> filteredCounts_;
};

std::uint32_t sniffViewPrologue(const unsigned char* bytes,
                                std::size_t size) {
  PERFVAR_REQUIRE_E(
      size > 0 && std::memcmp(bytes, kBinaryMagic,
                              std::min<std::size_t>(size, 4)) == 0,
      "binary trace: bad magic", ErrorContext::at(ErrorCode::BadMagic, 0));
  PERFVAR_REQUIRE_E(size >= kBinaryPrologueSize,
                    "binary trace: truncated prologue",
                    ErrorContext::at(ErrorCode::TruncatedInput, size));
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<std::uint32_t>(bytes[4 + i]) << (8 * i);
  }
  PERFVAR_REQUIRE_E(version == kBinaryFormatV1 || version == kBinaryFormatV2,
                    "binary trace: unsupported version " +
                        std::to_string(version),
                    ErrorContext::at(ErrorCode::UnsupportedVersion, 4));
  return version;
}

[[noreturn]] void rethrowViewError(const Error& e, const std::string& path) {
  if (!e.path().empty()) {
    throw e;
  }
  ErrorContext context = e.context();
  context.path = path;
  throw Error(e.what(), std::move(context));
}

}  // namespace

}  // namespace detail

// ---- TraceView ------------------------------------------------------------

TraceView::TraceView(const Trace& trace)
    : backend_(std::make_shared<detail::EagerBackend>(&trace)) {}

TraceView TraceView::shared(std::shared_ptr<const Trace> trace) {
  PERFVAR_REQUIRE(trace != nullptr, "TraceView::shared: null trace");
  return TraceView(std::make_shared<detail::EagerBackend>(std::move(trace)));
}

TraceView TraceView::owned(Trace&& trace) {
  return shared(std::make_shared<const Trace>(std::move(trace)));
}

TraceView TraceView::openFile(const std::string& path,
                              const TraceViewOptions& options) {
  util::FileView file = util::FileView::open(path);
  try {
    const std::uint32_t version =
        detail::sniffViewPrologue(file.data(), file.size());
    if (version == kBinaryFormatV1) {
      // v1 has no per-rank block table to decode lazily; materialize
      // behind the same interface.
      BinaryReadOptions readOptions;
      readOptions.recovery = options.recovery;
      readOptions.report = options.report;
      return owned(readBinaryBuffer(file.data(), file.size(), readOptions));
    }
    const bool salvage = options.recovery == RecoveryMode::Salvage;
    detail::V2Summary summary =
        detail::parseV2Summary(file.data(), file.size(),
                               /*lenientBlocks=*/salvage);
    LoadReport local;
    LoadReport* salvageReport = nullptr;
    if (salvage) {
      salvageReport = options.report != nullptr ? options.report : &local;
    }
    auto backend = std::make_shared<detail::LazyV2Backend>(
        std::move(file), std::move(summary), options.shardBudgetBytes,
        salvageReport);
    if (!salvage && options.report != nullptr) {
      // Strict opens defer block verification to first access; the report
      // reflects the (verified) header view of the file.
      LoadReport& report = *options.report;
      report = LoadReport{};
      report.version = kBinaryFormatV2;
      report.mode = RecoveryMode::Strict;
      report.ranks.assign(backend->processCount(), RankLoadStatus{});
      for (std::size_t i = 0; i < backend->processCount(); ++i) {
        report.ranks[i].process = backend->processName(
            static_cast<ProcessId>(i));
      }
    }
    return TraceView(std::move(backend));
  } catch (const Error& e) {
    detail::rethrowViewError(e, path);
  }
}

const detail::TraceViewBackend& TraceView::backend() const {
  PERFVAR_REQUIRE(backend_ != nullptr, "TraceView: invalid (empty) view");
  return *backend_;
}

std::uint64_t TraceView::resolution() const { return backend().resolution(); }

const FunctionRegistry& TraceView::functions() const {
  return backend().functions();
}

const MetricRegistry& TraceView::metrics() const {
  return backend().metrics();
}

std::size_t TraceView::processCount() const {
  return backend().processCount();
}

const std::string& TraceView::processName(ProcessId p) const {
  PERFVAR_REQUIRE(p < processCount(),
                  "TraceView::processName: process id out of range");
  return backend().processName(p);
}

std::uint64_t TraceView::eventCount(ProcessId p) const {
  PERFVAR_REQUIRE(p < processCount(),
                  "TraceView::eventCount: process id out of range");
  return backend().eventCount(p);
}

std::size_t TraceView::eventCount() const {
  std::size_t n = 0;
  for (ProcessId p = 0; p < processCount(); ++p) {
    n += static_cast<std::size_t>(backend().eventCount(p));
  }
  return n;
}

const std::vector<QuarantinedRank>& TraceView::quarantined() const {
  return backend().quarantined();
}

bool TraceView::isQuarantined(ProcessId p) const {
  for (const auto& q : quarantined()) {
    if (q.process == p) {
      return true;
    }
  }
  return false;
}

Timestamp TraceView::startTime() const {
  return backend().timeBounds(backend_).first;
}

Timestamp TraceView::endTime() const {
  return backend().timeBounds(backend_).second;
}

RankPin TraceView::rank(ProcessId p) const {
  PERFVAR_REQUIRE(p < processCount(),
                  "TraceView::rank: process id out of range");
  return backend().rank(p, backend_);
}

TraceView TraceView::selectProcesses(
    const std::vector<ProcessId>& processes) const {
  PERFVAR_REQUIRE(!processes.empty(), "selectProcesses: empty selection");
  if (const Trace* eager = eagerOrNull()) {
    // Eager parents materialize (one pass, exactly the historical
    // behavior and cost); only out-of-core parents filter lazily.
    return owned(trace::selectProcesses(*eager, processes));
  }
  backend();  // validity check
  return TraceView(
      std::make_shared<detail::FilteredBackend>(backend_, processes));
}

TraceView TraceView::dropQuarantined() const {
  if (quarantined().empty()) {
    return *this;
  }
  std::vector<ProcessId> keep;
  keep.reserve(processCount());
  for (ProcessId p = 0; p < processCount(); ++p) {
    if (!isQuarantined(p)) {
      keep.push_back(p);
    }
  }
  PERFVAR_REQUIRE(!keep.empty(),
                  "dropQuarantined: every rank is quarantined");
  return selectProcesses(keep);
}

const Trace* TraceView::eagerOrNull() const { return backend().eagerOrNull(); }

Trace TraceView::materialize() const {
  if (const Trace* eager = eagerOrNull()) {
    return *eager;
  }
  Trace out;
  out.resolution = resolution();
  out.functions = functions();
  out.metrics = metrics();
  out.processes.resize(processCount());
  for (ProcessId p = 0; p < processCount(); ++p) {
    out.processes[p].name = processName(p);
    const EventSpan events = rank(p).events();
    out.processes[p].events.assign(events.begin(), events.end());
  }
  out.quarantined = quarantined();
  return out;
}

TraceViewStats TraceView::stats() const { return backend().stats(); }

}  // namespace perfvar::trace
