#include "server/service.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "analysis/streaming.hpp"
#include "engine/engine.hpp"
#include "lint/lint.hpp"
#include "trace/binary_io.hpp"
#include "trace/stats.hpp"
#include "util/format.hpp"

namespace perfvar::server {

// ---- Sender ---------------------------------------------------------------

/// Flush outbuf_ to the socket. waitForDrain = false is the nonblocking
/// alert pump: write what the kernel accepts and leave the rest queued.
/// waitForDrain = true (response frames) polls for writability up to the
/// per-send timeout between partial writes; a peer that stays unwritable
/// that long is treated as dead and the sender deactivates — exactly the
/// semantics a closed peer already had, extended to stalled-but-alive
/// ones.
bool Sender::flushLocked(bool waitForDrain) {
  while (active_ && !outbuf_.empty()) {
    std::size_t written = 0;
    if (!util::sendNonBlocking(fd_, outbuf_.data(), outbuf_.size(),
                               written)) {
      // Peer gone (EPIPE, reset): one broadcast must never poison the
      // handler that triggered it. The session loop notices on its own.
      active_ = false;
      outbuf_.clear();
      return false;
    }
    if (written > 0) {
      outbuf_.erase(0, written);
      continue;
    }
    if (!waitForDrain) {
      return true;  // kernel buffer full; bytes stay queued
    }
    bool writable = false;
    try {
      writable = util::pollWritable(
          fd_, options_.sendTimeoutMs > 0 ? options_.sendTimeoutMs : -1);
    } catch (const Error&) {
      writable = false;
    }
    if (!writable) {
      active_ = false;
      outbuf_.clear();
      return false;
    }
  }
  return active_;
}

void Sender::queueDropMarkerLocked() {
  outbuf_ += util::encodeFrame(
      static_cast<std::uint8_t>(FrameType::Alert),
      "dropped=" + std::to_string(droppedPending_));
  droppedPending_ = 0;
}

bool Sender::send(FrameType type, std::string_view payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!active_) {
    return false;
  }
  if (droppedPending_ > 0) {
    queueDropMarkerLocked();
  }
  outbuf_ += util::encodeFrame(static_cast<std::uint8_t>(type), payload);
  return flushLocked(/*waitForDrain=*/true);
}

bool Sender::enqueueAlert(std::string_view line) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!active_) {
    return false;
  }
  std::string bytes =
      util::encodeFrame(static_cast<std::uint8_t>(FrameType::Alert), line);
  if (outbuf_.size() + bytes.size() > options_.alertQueueBytes &&
      !outbuf_.empty()) {
    // Slow consumer: drop this alert, remember how many were coalesced
    // away. The marker frame is queued once the backlog clears.
    ++droppedPending_;
    ++droppedTotal_;
    flushLocked(/*waitForDrain=*/false);
    return active_;
  }
  if (droppedPending_ > 0) {
    queueDropMarkerLocked();
  }
  outbuf_ += bytes;
  return flushLocked(/*waitForDrain=*/false);
}

bool Sender::pumpAlerts() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!active_) {
    return false;
  }
  const bool ok = flushLocked(/*waitForDrain=*/false);
  if (ok && droppedPending_ > 0 &&
      outbuf_.size() < options_.alertQueueBytes) {
    queueDropMarkerLocked();
    return flushLocked(/*waitForDrain=*/false);
  }
  return ok;
}

void Sender::deactivate() {
  std::lock_guard<std::mutex> lock(mutex_);
  active_ = false;
  outbuf_.clear();
}

bool Sender::active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_;
}

std::uint64_t Sender::alertsDropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return droppedTotal_;
}

// ---- resident-trace registry ----------------------------------------------

/// One resident trace: either a file-backed engine (stage caches) or a
/// live streaming trace.
struct TraceService::Entry {
  enum class Kind { Engine, Live };

  std::mutex mutex;  ///< serializes computation on this trace

  Kind kind = Kind::Engine;
  std::string name;

  // Engine entries.
  std::string path;
  std::unique_ptr<engine::AnalysisEngine> engine;
  std::string loadMessage;  ///< the idempotent Ok payload of `load`

  // Live entries.
  trace::Trace live;
  std::string segmentFunctionName;
  analysis::StreamingOptions streamOptions;
  std::unique_ptr<analysis::StreamingSos> sos;
  std::vector<analysis::StreamingAlert> pendingAlerts;
  std::string openMessage;  ///< the idempotent Ok payload of `open`
  std::uint64_t appendsDone = 0;
  std::uint64_t alertsTotal = 0;
  std::vector<std::weak_ptr<ServerSession>> subscribers;

  /// One out-of-order chunk held in the reorder window.
  struct PendingChunk {
    std::string image;           ///< raw v2 chunk image (wire bytes)
    trace::Timestamp start = 0;  ///< earliest event time in the chunk
    std::uint64_t seq = 0;       ///< arrival order (tiebreak for equal starts)
  };
  /// Reorder window, sorted by (start, seq). Committed earliest-first on
  /// overflow and in full before any read.
  std::vector<PendingChunk> pending;
  std::size_t pendingBytes = 0;
  std::uint64_t nextChunkSeq = 0;
  std::uint64_t chunksDropped = 0;  ///< window chunks the trace rejected

  /// Write-ahead journal of this live trace; null when journaling is off
  /// or permanently disabled after a journal I/O failure.
  std::unique_ptr<JournalWriter> journal;

  // Accounting (guarded by the REGISTRY mutex, not by `mutex`).
  std::size_t bytes = 0;
  std::uint64_t lastUse = 0;
  std::uint64_t ownerSession = 0;
};

/// Name -> entry map plus eviction state and the byte accounting. All
/// members are guarded by `mutex`; Entry contents (beyond the accounting
/// block) are not. Resident bytes are charged and discharged only by the
/// members below, so they always sum the resident entries' `bytes`.
class TraceService::Registry {
public:
  /// On-disk remains of a spilled (rehydratable) entry.
  struct SpillInfo {
    Entry::Kind kind = Entry::Kind::Engine;
    std::string source;  ///< engine: trace file path; live: journal path
    std::uint64_t ownerSession = 0;
  };

  mutable std::mutex mutex;
  std::map<std::string, std::shared_ptr<Entry>> entries;
  /// Names removed by budget or explicit eviction: referencing one gets a
  /// graceful Evicted response until the name is re-loaded / re-opened.
  std::set<std::string> tombstones;
  /// Names budget-evicted with a recoverable source: referencing one
  /// faults it back in (rehydration). Disjoint from tombstones.
  std::map<std::string, SpillInfo> spilled;
  std::uint64_t useClock = 0;
  std::uint64_t rehydrations = 0;

  ServiceStats stats() const {
    std::lock_guard<std::mutex> lock(mutex);
    ServiceStats s;
    s.traces = entries.size();
    s.residentBytes = residentBytes;
    s.evictions = evictions;
    s.spilled = spilled.size();
    s.rehydrations = rehydrations;
    return s;
  }

  std::uint64_t openSession() {
    std::lock_guard<std::mutex> lock(mutex);
    const std::uint64_t id = nextSessionId++;
    sessionBytes[id] = 0;
    return id;
  }

  void closeSession(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(mutex);
    sessionBytes.erase(id);
  }

  /// The bytes an entry is charged with.
  std::size_t bytesOf(const Entry& e) const {
    std::lock_guard<std::mutex> lock(mutex);
    return e.bytes;
  }

  /// Publish an entry under its name, charged `bytes`, and forget the
  /// name's tombstone or spill (caller holds `mutex`; the name is not
  /// resident).
  void admitLocked(const std::shared_ptr<Entry>& e, std::size_t bytes) {
    tombstones.erase(e->name);
    spilled.erase(e->name);
    e->lastUse = ++useClock;
    entries.emplace(e->name, e);
    chargeLocked(*e, bytes);
  }

  /// Re-charge a resident entry at `bytes` and enforce the budgets around
  /// it; a no-op when `e` is no longer resident under its name.
  void resize(const std::shared_ptr<Entry>& e, std::size_t bytes,
              const ServerOptions& options) {
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = entries.find(e->name);
    if (it != entries.end() && it->second == e) {
      chargeLocked(*e, bytes);
      enforceBudgetsLocked(options, e.get(), e->ownerSession);
    }
  }

  /// Drop one entry (caller holds `mutex`). With `spill` set, an entry
  /// whose state survives on disk — an engine's source file or a live
  /// entry's journal — is parked in `spilled` instead of tombstoned, so
  /// the next reference rehydrates it. (Reading e->journal here is safe:
  /// the pointer is set before the entry is published into `entries` and
  /// never reassigned while resident.)
  void evictLocked(const std::map<std::string,
                                  std::shared_ptr<Entry>>::iterator it,
                   bool spill) {
    const std::shared_ptr<Entry>& e = it->second;
    chargeLocked(*e, 0);
    std::string source;
    if (spill) {
      if (e->kind == Entry::Kind::Engine) {
        source = e->path;
      } else if (e->journal) {
        source = e->journal->path();
      }
    }
    if (!source.empty()) {
      spilled[it->first] = SpillInfo{e->kind, source, e->ownerSession};
    } else {
      tombstones.insert(it->first);
    }
    ++evictions;
    entries.erase(it);
  }

  /// LRU eviction until the global and per-session budgets hold again;
  /// `keep` (the entry just touched) is never evicted. Caller holds
  /// `mutex`.
  void enforceBudgetsLocked(const ServerOptions& options, const Entry* keep,
                            std::uint64_t sessionId) {
    const auto lruVictim = [&](bool sessionOnly) {
      auto victim = entries.end();
      for (auto it = entries.begin(); it != entries.end(); ++it) {
        if (it->second.get() == keep) {
          continue;
        }
        if (sessionOnly && it->second->ownerSession != sessionId) {
          continue;
        }
        if (victim == entries.end() ||
            it->second->lastUse < victim->second->lastUse) {
          victim = it;
        }
      }
      return victim;
    };
    const bool spill = !options.journalDir.empty();
    while (options.maxResidentBytes > 0 &&
           residentBytes > options.maxResidentBytes) {
      const auto victim = lruVictim(/*sessionOnly=*/false);
      if (victim == entries.end()) {
        break;  // only `keep` is left; it may exceed the budget alone
      }
      evictLocked(victim, spill);
    }
    while (options.maxSessionBytes > 0 &&
           sessionBytes[sessionId] > options.maxSessionBytes) {
      const auto victim = lruVictim(/*sessionOnly=*/true);
      if (victim == entries.end()) {
        break;
      }
      evictLocked(victim, spill);
    }
  }

private:
  void chargeLocked(Entry& e, std::size_t bytes) {
    residentBytes += bytes;
    residentBytes -= std::min(residentBytes, e.bytes);
    std::size_t& session = sessionBytes[e.ownerSession];
    session += bytes;
    session -= std::min(session, e.bytes);
    e.bytes = bytes;
  }

  std::size_t residentBytes = 0;
  std::map<std::uint64_t, std::size_t> sessionBytes;
  std::uint64_t evictions = 0;
  std::uint64_t nextSessionId = 1;
};

namespace {

util::Frame frame(FrameType type, std::string payload) {
  util::Frame f;
  f.type = static_cast<std::uint8_t>(type);
  f.payload = std::move(payload);
  return f;
}

std::vector<util::Frame> one(FrameType type, std::string payload) {
  std::vector<util::Frame> out;
  out.push_back(frame(type, std::move(payload)));
  return out;
}

[[noreturn]] void throwUnknownTrace(const std::string& name) {
  throw Error("unknown trace '" + name + "' (load or open it first)",
              ErrorContext::at(ErrorCode::Generic));
}

[[noreturn]] void throwUsage(const std::string& message) {
  throw Error(message, ErrorContext::at(ErrorCode::MalformedEvent));
}

/// The options of every engine the service builds: a loaded entry's
/// resident one and a live entry's per-read one.
engine::EngineOptions engineOptionsFor(const ServerOptions& options) {
  engine::EngineOptions eo;
  eo.threads = options.threads;
  eo.maxCacheEntries = options.maxCacheEntries;
  return eo;
}

std::string formatOpenMessage(const std::string& name, const std::string& fn,
                              const analysis::StreamingOptions& so) {
  std::ostringstream msg;
  msg << "opened " << name << ": segment " << fn << ", threshold "
      << fmt::fixed(so.alertThreshold, 2) << ", warmup "
      << so.warmupSegments;
  return msg.str();
}

}  // namespace

// ---- TraceService ---------------------------------------------------------

TraceService::TraceService(ServerOptions options)
    : options_(std::move(options)), registry_(std::make_unique<Registry>()) {
  if (options_.recover && !options_.journalDir.empty()) {
    recoverJournals();
  }
}

TraceService::~TraceService() = default;

std::shared_ptr<ServerSession> TraceService::openSession(
    std::shared_ptr<Sender> sender) {
  auto session = std::make_shared<ServerSession>();
  session->sender = std::move(sender);
  session->id = registry_->openSession();
  return session;
}

void TraceService::closeSession(
    const std::shared_ptr<ServerSession>& session) {
  if (!session) {
    return;
  }
  if (session->sender) {
    session->sender->deactivate();
  }
  registry_->closeSession(session->id);
  // Resident traces deliberately outlive the session that loaded them;
  // subscriptions die with the session (the weak_ptrs expire).
}

ServiceStats TraceService::stats() const { return registry_->stats(); }

void TraceService::syncJournals() {
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::lock_guard<std::mutex> lock(registry_->mutex);
    for (const auto& [name, entry] : registry_->entries) {
      entries.push_back(entry);
    }
  }
  for (const std::shared_ptr<Entry>& entry : entries) {
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->journal) {
      try {
        entry->journal->sync();
      } catch (const Error&) {
        // Drain is best effort; the per-record fsync policy is the
        // guarantee knob.
      }
    }
  }
}

std::vector<util::Frame> TraceService::handle(
    const std::shared_ptr<ServerSession>& session,
    const util::Frame& request) {
  try {
    return dispatch(session, request);
  } catch (const Error& e) {
    return one(FrameType::Error, encodeErrorPayload(e.code(), e.what()));
  } catch (const std::exception& e) {
    return one(FrameType::Error,
               encodeErrorPayload(ErrorCode::Generic, e.what()));
  }
}

std::vector<util::Frame> TraceService::dispatch(
    const std::shared_ptr<ServerSession>& session,
    const util::Frame& request) {
  const auto type = static_cast<FrameType>(request.type);
  switch (type) {
    case FrameType::Load:
      return handleLoad(session, splitTokens(request.payload));
    case FrameType::Open:
      return handleOpen(session, splitTokens(request.payload));
    case FrameType::Append:
      return handleAppend(session, request.payload);
    case FrameType::Analyze:
      return handleAnalyze(session, splitTokens(request.payload));
    case FrameType::Export:
      return handleExport(session, splitTokens(request.payload));
    case FrameType::Lint:
      return handleLint(session, splitTokens(request.payload));
    case FrameType::Stats:
      return handleStats(session, splitTokens(request.payload));
    case FrameType::Evict:
      return handleEvict(splitTokens(request.payload));
    case FrameType::Subscribe:
      return handleSubscribe(session, splitTokens(request.payload));
    case FrameType::Hello:
      throwUsage("unexpected hello frame mid-session");
    default:
      throwUsage("unknown request frame type " +
                 std::to_string(request.type));
  }
}

std::vector<util::Frame> TraceService::handleLoad(
    const std::shared_ptr<ServerSession>& session,
    const std::vector<std::string>& tokens) {
  if (tokens.size() != 2) {
    throwUsage("load expects: <name> <path>");
  }
  const std::string& name = tokens[0];
  const std::string& path = tokens[1];

  if (!options_.journalDir.empty()) {
    // Fault a spilled entry back in first, so the idempotent-reload check
    // below sees it as resident (a spilled entry is cold, not gone).
    resolveEntry(name);
  }

  std::shared_ptr<Entry> entry;
  bool created = false;
  {
    std::lock_guard<std::mutex> lock(registry_->mutex);
    const auto it = registry_->entries.find(name);
    if (it != registry_->entries.end()) {
      entry = it->second;
      // Idempotent reload of the same file: the anchor that makes
      // concurrent `load` transcripts byte-identical to serial ones.
      if (entry->kind != Entry::Kind::Engine || entry->path != path) {
        throw Error("trace name '" + name +
                        "' is already resident with a different source",
                    ErrorContext::at(ErrorCode::Generic));
      }
      entry->lastUse = ++registry_->useClock;
    } else {
      entry = std::make_shared<Entry>();
      entry->kind = Entry::Kind::Engine;
      entry->name = name;
      entry->path = path;
      entry->ownerSession = session->id;
      registry_->admitLocked(entry, 0);  // charged once loaded
      created = true;
    }
  }

  std::lock_guard<std::mutex> lock(entry->mutex);
  if (!entry->engine) {
    try {
      loadEngineLocked(*entry);
    } catch (...) {
      // Roll the registration back so the name is usable again; a
      // concurrent waiter holding this shared_ptr retries the load
      // itself and reports the same error.
      if (created) {
        std::lock_guard<std::mutex> lock2(registry_->mutex);
        const auto it = registry_->entries.find(name);
        if (it != registry_->entries.end() && it->second == entry) {
          registry_->entries.erase(it);
        }
      }
      throw;
    }
    registry_->resize(entry, footprintLocked(*entry), options_);
  }
  return one(FrameType::Ok, entry->loadMessage);
}

std::vector<util::Frame> TraceService::handleOpen(
    const std::shared_ptr<ServerSession>& session,
    const std::vector<std::string>& tokens) {
  if (tokens.size() < 2) {
    throwUsage("open expects: <name> <segmentFunction> [threshold Z] "
               "[warmup N]");
  }
  const std::string& name = tokens[0];
  const std::string& fn = tokens[1];
  analysis::StreamingOptions streamOptions;
  for (std::size_t i = 2; i < tokens.size(); i += 2) {
    if (i + 1 >= tokens.size()) {
      throwUsage("open option '" + tokens[i] + "' needs a value");
    }
    const std::string& key = tokens[i];
    const std::string& value = tokens[i + 1];
    if (key == "threshold") {
      if (!fmt::parseDouble(value, streamOptions.alertThreshold)) {
        throwUsage("open threshold expects a finite number, got '" + value +
                   "'");
      }
    } else if (key == "warmup") {
      if (!fmt::parseSize(value, streamOptions.warmupSegments)) {
        throwUsage("open warmup expects a non-negative integer, got '" +
                   value + "'");
      }
    } else {
      throwUsage("unknown open option '" + key + "'");
    }
  }

  if (!options_.journalDir.empty()) {
    // A spilled live entry is cold, not gone: fault it back in so a
    // same-spec re-open resumes the journaled history instead of
    // silently starting the trace over.
    resolveEntry(name);
  }

  std::lock_guard<std::mutex> lock(registry_->mutex);
  const auto it = registry_->entries.find(name);
  if (it != registry_->entries.end()) {
    const std::shared_ptr<Entry>& entry = it->second;
    const bool sameSpec =
        entry->kind == Entry::Kind::Live &&
        entry->segmentFunctionName == fn &&
        entry->streamOptions.alertThreshold ==
            streamOptions.alertThreshold &&
        entry->streamOptions.warmupSegments == streamOptions.warmupSegments;
    if (!sameSpec) {
      throw Error("trace name '" + name +
                      "' is already resident with a different source",
                  ErrorContext::at(ErrorCode::Generic));
    }
    entry->lastUse = ++registry_->useClock;
    return one(FrameType::Ok, entry->openMessage);
  }
  auto entry = std::make_shared<Entry>();
  entry->kind = Entry::Kind::Live;
  entry->name = name;
  entry->segmentFunctionName = fn;
  entry->streamOptions = streamOptions;
  entry->ownerSession = session->id;
  entry->openMessage = formatOpenMessage(name, fn, streamOptions);
  if (!options_.journalDir.empty()) {
    // Journal the open before the entry becomes visible: an acknowledged
    // open must survive a crash, and a failed journal must fail the open.
    entry->journal = std::make_unique<JournalWriter>(JournalWriter::create(
        options_.journalDir, name, options_.journalFsync));
    JournalOpen open;
    open.segmentFunction = fn;
    open.threshold = streamOptions.alertThreshold;
    open.warmup = streamOptions.warmupSegments;
    entry->journal->append(JournalRecordType::Open, encodeJournalOpen(open));
  }
  registry_->admitLocked(entry, 0);
  return one(FrameType::Ok, entry->openMessage);
}

std::shared_ptr<TraceService::Entry> TraceService::resolveEntry(
    const std::string& name, bool* evicted) {
  Registry::SpillInfo spill;
  {
    std::lock_guard<std::mutex> lock(registry_->mutex);
    const auto it = registry_->entries.find(name);
    if (it != registry_->entries.end()) {
      it->second->lastUse = ++registry_->useClock;
      return it->second;
    }
    const auto sit = registry_->spilled.find(name);
    if (sit == registry_->spilled.end()) {
      if (evicted != nullptr) {
        *evicted = registry_->tombstones.count(name) > 0;
      }
      return nullptr;
    }
    spill = sit->second;
  }
  // Rebuild outside any lock: engine loads and journal replays are slow,
  // and the budgets below must not hold the registry hostage meanwhile.
  std::shared_ptr<Entry> entry;
  std::size_t bytes = 0;
  try {
    entry = spill.kind == Entry::Kind::Engine
                ? buildEngineEntry(name, spill.source)
                : buildLiveFromJournal(spill.source, &name);
    entry->ownerSession = spill.ownerSession;
    bytes = footprintLocked(*entry);
  } catch (const std::exception&) {
    entry = nullptr;  // source gone / unreadable: degrade to a tombstone
  }
  std::lock_guard<std::mutex> lock(registry_->mutex);
  const auto it = registry_->entries.find(name);
  if (it != registry_->entries.end()) {
    // Lost a rehydration race; the resident entry wins.
    it->second->lastUse = ++registry_->useClock;
    return it->second;
  }
  if (!entry) {
    registry_->spilled.erase(name);
    registry_->tombstones.insert(name);
    if (evicted != nullptr) {
      *evicted = true;
    }
    return nullptr;
  }
  ++registry_->rehydrations;
  registry_->admitLocked(entry, bytes);
  registry_->enforceBudgetsLocked(options_, entry.get(),
                                  entry->ownerSession);
  return entry;
}

std::shared_ptr<TraceService::Entry> TraceService::requireEntry(
    const std::string& name) {
  bool evicted = false;
  std::shared_ptr<Entry> entry = resolveEntry(name, &evicted);
  if (!entry && !evicted) {
    throwUnknownTrace(name);
  }
  return entry;
}

void TraceService::loadEngineLocked(Entry& e) const {
  trace::BinaryReadOptions ro;
  ro.threads = options_.threads;
  trace::Trace tr = trace::loadBinaryFile(e.path, ro);
  auto eng = std::make_unique<engine::AnalysisEngine>(
      std::move(tr), engineOptionsFor(options_));
  std::ostringstream msg;
  msg << "loaded " << e.name << ": " << eng->trace().processCount()
      << " processes, " << eng->trace().eventCount() << " events";
  e.loadMessage = msg.str();
  e.engine = std::move(eng);
}

std::shared_ptr<TraceService::Entry> TraceService::buildEngineEntry(
    const std::string& name, const std::string& path) {
  auto entry = std::make_shared<Entry>();
  entry->kind = Entry::Kind::Engine;
  entry->name = name;
  entry->path = path;
  loadEngineLocked(*entry);
  return entry;
}

std::shared_ptr<TraceService::Entry> TraceService::buildLiveFromJournal(
    const std::string& path, const std::string* expectedName) {
  JournalScan scan = scanJournal(path);
  if (scan.torn) {
    // Amputate the torn tail before reopening for append, so the next
    // record lands after the last valid one.
    util::truncateFile(path, scan.validBytes);
  }
  PERFVAR_REQUIRE_E(!scan.records.empty() &&
                        scan.records.front().type == JournalRecordType::Open,
                    "journal has no Open record: " + path,
                    ErrorContext::at(ErrorCode::MalformedEvent));
  PERFVAR_REQUIRE_E(expectedName == nullptr || scan.traceName == *expectedName,
                    "journal names trace '" + scan.traceName +
                        "', expected '" +
                        (expectedName ? *expectedName : std::string{}) + "'",
                    ErrorContext::at(ErrorCode::MalformedEvent));

  const JournalOpen open = decodeJournalOpen(scan.records.front().payload);
  auto entry = std::make_shared<Entry>();
  entry->kind = Entry::Kind::Live;
  entry->name = scan.traceName;
  entry->segmentFunctionName = open.segmentFunction;
  entry->streamOptions.alertThreshold = open.threshold;
  entry->streamOptions.warmupSegments =
      static_cast<std::size_t>(open.warmup);
  entry->openMessage = formatOpenMessage(
      entry->name, entry->segmentFunctionName, entry->streamOptions);

  // Replay is record-driven, not window-driven: the journal says exactly
  // which chunks committed and which stayed buffered, so the rebuilt
  // entry matches the pre-crash one even if the reorder-window setting
  // changed across the restart.
  for (std::size_t i = 1; i < scan.records.size(); ++i) {
    const JournalRecord& record = scan.records[i];
    if (record.type == JournalRecordType::Append) {
      const JournalAppend append = decodeJournalAppend(record.payload);
      if (append.buffered) {
        try {
          trace::BinaryReadOptions ro;
          ro.threads = options_.threads;
          trace::Trace chunk = trace::readBinaryBuffer(
              append.image.data(), append.image.size(), ro);
          bufferChunkLocked(*entry, append.image, chunk.startTime());
        } catch (const Error&) {
          ++entry->chunksDropped;
        }
      } else {
        try {
          commitChunkLocked(*entry, append.image);
        } catch (const Error&) {
          ++entry->chunksDropped;
        }
      }
      ++entry->appendsDone;
    } else if (record.type == JournalRecordType::Flush) {
      const std::uint64_t count = decodeJournalFlush(record.payload);
      for (std::uint64_t n = 0; n < count && !entry->pending.empty(); ++n) {
        commitEarliestLocked(*entry);
      }
    }
    // Alerts re-fire during replay; only the lifetime counter matters
    // (no sessions exist yet to deliver to).
    entry->alertsTotal += entry->pendingAlerts.size();
    entry->pendingAlerts.clear();
  }

  if (!options_.journalDir.empty()) {
    entry->journal = std::make_unique<JournalWriter>(
        JournalWriter::openExisting(path, options_.journalFsync));
  }
  return entry;
}

void TraceService::recoverJournals() {
  for (const std::string& path : listJournals(options_.journalDir)) {
    std::shared_ptr<Entry> entry;
    try {
      entry = buildLiveFromJournal(path, nullptr);
    } catch (const std::exception&) {
      continue;  // recovery never fails on one bad journal
    }
    const std::size_t bytes = footprintLocked(*entry);
    std::lock_guard<std::mutex> lock(registry_->mutex);
    if (registry_->entries.count(entry->name) == 0) {
      registry_->admitLocked(entry, bytes);
    }
  }
  std::lock_guard<std::mutex> lock(registry_->mutex);
  registry_->enforceBudgetsLocked(options_, nullptr, 0);
}

trace::AppendStats TraceService::commitChunkLocked(Entry& entry,
                                                   std::string_view image) {
  // Stream sizes before the append: the chunk's events land at each
  // stream's tail, which is what the streaming analyzer must consume.
  // With the capacities they are also what a rejected chunk is cut back to.
  const bool adopting = !entry.sos;
  std::vector<std::size_t> before;
  std::vector<std::size_t> capacity;
  for (const trace::ProcessTrace& process : entry.live.processes) {
    before.push_back(process.events.size());
    capacity.push_back(process.events.capacity());
  }

  trace::BinaryReadOptions ro;
  ro.threads = options_.threads;
  const trace::AppendStats stats = trace::appendBinaryBuffer(
      entry.live, image.data(), image.size(), ro);

  try {
    if (adopting && entry.live.processCount() > 0) {
      // Adopt-on-first-append just defined the trace; bring the
      // streaming analyzer up against its definitions.
      const auto fn = entry.live.functions.find(entry.segmentFunctionName);
      if (!fn.has_value()) {
        throw Error("segment function '" + entry.segmentFunctionName +
                        "' is not defined in the appended chunk",
                    ErrorContext::at(ErrorCode::MalformedEvent));
      }
      entry.sos = std::make_unique<analysis::StreamingSos>(
          entry.live, *fn, entry.streamOptions);
      Entry* raw = &entry;
      entry.sos->setAlertCallback(
          [raw](const analysis::StreamingAlert& alert) {
            raw->pendingAlerts.push_back(alert);
          });
      before.assign(entry.live.processCount(), 0);
    }

    if (entry.sos) {
      // Feed exactly the appended tail, interleaved in (time, process)
      // order — identical to what one replay() of the final trace visits
      // for this time window. (A zero-process chunk leaves the analyzer
      // unconstructed; there is nothing to feed either.)
      trace::Trace tail;
      tail.resolution = entry.live.resolution;
      tail.processes.resize(entry.live.processCount());
      for (std::size_t p = 0; p < entry.live.processCount(); ++p) {
        const auto& events = entry.live.processes[p].events;
        tail.processes[p].events.assign(
            events.begin() + static_cast<std::ptrdiff_t>(before[p]),
            events.end());
      }
      entry.sos->feed(tail);
    }
  } catch (...) {
    // The feed is all-or-nothing, so only the trace needs undoing: back to
    // pristine (name reusable) if this chunk defined it, else each stream
    // cut back to its size and capacity (the byte accounting) before it.
    if (adopting) {
      entry.live = trace::Trace{};
      entry.sos.reset();
    } else {
      for (std::size_t p = 0; p < before.size(); ++p) {
        auto& events = entry.live.processes[p].events;
        std::vector<trace::Event> kept;
        kept.reserve(capacity[p]);
        kept.assign(events.begin(),
                    events.begin() + static_cast<std::ptrdiff_t>(before[p]));
        events.swap(kept);
      }
      entry.live.invalidateTimeBounds();
    }
    throw;
  }
  return stats;
}

void TraceService::bufferChunkLocked(Entry& entry, std::string_view image,
                                     trace::Timestamp start) {
  Entry::PendingChunk pc;
  pc.image.assign(image.data(), image.size());
  pc.start = start;
  pc.seq = entry.nextChunkSeq++;
  // After every chunk with the same start: equal starts keep arrival order.
  const auto pos = std::upper_bound(
      entry.pending.begin(), entry.pending.end(), start,
      [](trace::Timestamp s, const Entry::PendingChunk& c) {
        return s < c.start;
      });
  entry.pendingBytes += pc.image.size();
  entry.pending.insert(pos, std::move(pc));
}

void TraceService::commitEarliestLocked(Entry& entry) {
  Entry::PendingChunk chunk = std::move(entry.pending.front());
  entry.pending.erase(entry.pending.begin());
  entry.pendingBytes -= std::min(entry.pendingBytes, chunk.image.size());
  try {
    commitChunkLocked(entry, chunk.image);
  } catch (const Error&) {
    ++entry.chunksDropped;
  }
}

std::size_t TraceService::flushWindowToLocked(Entry& entry,
                                              std::size_t targetBytes) {
  std::size_t processed = 0;
  while (!entry.pending.empty() && entry.pendingBytes > targetBytes) {
    commitEarliestLocked(entry);
    ++processed;
  }
  if (processed > 0 && entry.journal) {
    journalRecordLocked(entry, JournalRecordType::Flush,
                        encodeJournalFlush(processed));
  }
  return processed;
}

void TraceService::journalRecordLocked(Entry& entry, JournalRecordType type,
                                       std::string_view payload) {
  if (!entry.journal) {
    return;
  }
  try {
    entry.journal->append(type, payload);
  } catch (...) {
    // Durability is gone for this entry; keep serving from memory but
    // never pretend later records were journaled, and fail this request
    // loudly so the producer knows.
    entry.journal.reset();
    throw;
  }
}

std::vector<std::string> TraceService::drainAlertsLocked(Entry& entry) {
  std::vector<std::string> lines;
  lines.reserve(entry.pendingAlerts.size());
  for (const analysis::StreamingAlert& alert : entry.pendingAlerts) {
    lines.push_back(entry.name + ": " +
                    analysis::formatStreamingAlert(entry.live, alert));
  }
  entry.alertsTotal += entry.pendingAlerts.size();
  entry.pendingAlerts.clear();
  return lines;
}

void TraceService::broadcastAlertsLocked(
    Entry& entry, const std::shared_ptr<ServerSession>& session,
    const std::vector<std::string>& lines, std::vector<util::Frame>& out) {
  // Queue to subscribed sessions while holding the entry lock, so alerts
  // of successive appends arrive in order. Delivery is the bounded-queue
  // nonblocking path: a slow subscriber cannot stall this handler. The
  // requester's own alerts go into the response sequence instead
  // (deterministically before the final frame).
  auto& subs = entry.subscribers;
  for (auto it = subs.begin(); it != subs.end();) {
    const std::shared_ptr<ServerSession> sub = it->lock();
    if (!sub) {
      it = subs.erase(it);
      continue;
    }
    if (!session || sub->id != session->id) {
      for (const std::string& line : lines) {
        sub->sender->enqueueAlert(line);
      }
    }
    ++it;
  }
  if (session && session->subscriptions.count(entry.name) > 0) {
    for (const std::string& line : lines) {
      out.push_back(frame(FrameType::Alert, line));
    }
  }
}

std::size_t TraceService::flushForReadLocked(
    Entry& entry, const std::shared_ptr<ServerSession>& session,
    std::vector<util::Frame>& out) {
  if (entry.kind != Entry::Kind::Live || entry.pending.empty()) {
    return 0;
  }
  const std::size_t processed = flushWindowToLocked(entry, 0);
  broadcastAlertsLocked(entry, session, drainAlertsLocked(entry), out);
  return processed;
}

std::size_t TraceService::footprintLocked(const Entry& entry) {
  return entry.kind == Entry::Kind::Engine
             ? trace::approxMemoryBytes(entry.engine->trace())
             : trace::approxMemoryBytes(entry.live) + entry.pendingBytes;
}

std::vector<util::Frame> TraceService::handleAppend(
    const std::shared_ptr<ServerSession>& session,
    std::string_view payload) {
  const AppendPayload append = decodeAppendPayload(payload);
  const std::shared_ptr<Entry> entry = requireEntry(append.name);
  if (!entry) {
    return one(FrameType::Evicted, append.name);
  }
  if (entry->kind != Entry::Kind::Live) {
    throw Error("trace '" + append.name +
                    "' is file-backed; append requires a live trace "
                    "(use open)",
                ErrorContext::at(ErrorCode::Generic));
  }

  std::vector<util::Frame> out;
  std::string okMessage;
  std::vector<std::string> alertLines;
  std::size_t newBytes = 0;
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    const std::size_t window = options_.reorderWindowBytes;
    bool direct = window == 0;
    std::size_t flushed = 0;
    trace::Trace chunk;
    if (!direct) {
      // Window mode decodes the chunk strictly up front: a corrupt image
      // is rejected with the same error taxonomy as a direct append, and
      // never journaled.
      trace::BinaryReadOptions ro;
      ro.threads = options_.threads;
      chunk = trace::readBinaryBuffer(append.image.data(),
                                      append.image.size(), ro);
      // So is a chunk no commit could accept: an undefined ref, or a
      // leave that does not close the innermost frame the chunk opened.
      analysis::StreamingSos::checkChunk(chunk);
      // Definition-only chunks carry no ordering constraint; commit them
      // directly so adopt-on-first-append semantics hold.
      direct = chunk.eventCount() == 0;
      if (!direct && entry->live.eventCount() > 0 &&
          chunk.startTime() < entry->live.endTime()) {
        throw Error(
            "chunk for '" + append.name +
                "' starts before the committed tail (the reorder window "
                "already flushed past it)",
            ErrorContext::at(ErrorCode::ChunkOutOfWindow));
      }
    } else if (!entry->pending.empty()) {
      // Recovery can leave a window from a run that had one configured;
      // commit it before direct appends so time order is preserved.
      flushed += flushWindowToLocked(*entry, 0);
    }

    if (direct) {
      const trace::AppendStats stats =
          commitChunkLocked(*entry, append.image);
      journalRecordLocked(*entry, JournalRecordType::Append,
                          encodeJournalAppend(/*buffered=*/false,
                                              append.image));
      ++entry->appendsDone;
      alertLines = drainAlertsLocked(*entry);
      std::ostringstream msg;
      msg << "appended " << append.name << ": " << stats.eventsAppended
          << " events, "
          << (entry->sos ? entry->sos->segmentsCompleted() : 0)
          << " segments, " << alertLines.size() << " alerts";
      okMessage = msg.str();
    } else {
      // Journal before the buffer mutation: an accepted chunk must be
      // recoverable the instant its Ok is on the wire.
      journalRecordLocked(*entry, JournalRecordType::Append,
                          encodeJournalAppend(/*buffered=*/true,
                                              append.image));
      bufferChunkLocked(*entry, append.image, chunk.startTime());
      ++entry->appendsDone;
      if (entry->pendingBytes > window) {
        flushed += flushWindowToLocked(*entry, window);
      }
      alertLines = drainAlertsLocked(*entry);
      std::ostringstream msg;
      msg << "buffered " << append.name << ": " << chunk.eventCount()
          << " events, window " << entry->pending.size() << " chunks/"
          << entry->pendingBytes << " bytes";
      if (flushed > 0) {
        msg << ", flushed " << flushed << " chunks, " << alertLines.size()
            << " alerts";
      }
      okMessage = msg.str();
    }
    newBytes = footprintLocked(*entry);
    broadcastAlertsLocked(*entry, session, alertLines, out);
  }

  registry_->resize(entry, newBytes, options_);
  out.push_back(frame(FrameType::Ok, okMessage));
  return out;
}

std::vector<util::Frame> TraceService::readEntry(
    const std::shared_ptr<ServerSession>& session, const std::string& name,
    const std::function<std::string(engine::AnalysisEngine&)>& render) {
  const std::shared_ptr<Entry> entry = requireEntry(name);
  if (!entry) {
    return one(FrameType::Evicted, name);
  }
  std::vector<util::Frame> out;
  std::size_t flushed = 0;
  std::size_t newBytes = 0;
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    flushed = flushForReadLocked(*entry, session, out);
    std::optional<engine::AnalysisEngine> live;
    if (!entry->engine) {
      PERFVAR_REQUIRE(entry->live.processCount() > 0,
                      "live trace '" + name + "' has no appended data yet");
      // Built per read and dropped with it: the next append would make a
      // kept engine's caches stale.
      live.emplace(trace::TraceView(entry->live), engineOptionsFor(options_));
    }
    out.push_back(frame(FrameType::Data,
                        render(live ? *live : *entry->engine)));
    newBytes = footprintLocked(*entry);
  }
  if (flushed > 0) {
    registry_->resize(entry, newBytes, options_);
  }
  return out;
}

std::vector<util::Frame> TraceService::handleAnalyze(
    const std::shared_ptr<ServerSession>& session,
    const std::vector<std::string>& tokens) {
  if (tokens.empty()) {
    throwUsage("analyze expects: <name> [candidate K] [threshold Z] "
               "[max-hotspots N]");
  }
  const analysis::PipelineOptions opts = parsePipelineOptions(tokens, 1);
  return readEntry(session, tokens[0], [&](engine::AnalysisEngine& e) {
    return e.formatReport(opts);
  });
}

std::vector<util::Frame> TraceService::handleExport(
    const std::shared_ptr<ServerSession>& session,
    const std::vector<std::string>& tokens) {
  if (tokens.size() < 2) {
    throwUsage("export expects: <name> <text|json|csv|csv-iterations|"
               "csv-hotspots> [analyze options]");
  }
  const analysis::ExportFormat format = parseExportFormat(tokens[1]);
  const analysis::PipelineOptions opts = parsePipelineOptions(tokens, 2);
  return readEntry(session, tokens[0], [&](engine::AnalysisEngine& e) {
    std::ostringstream os;
    e.exportReport(format, os, opts);
    return os.str();
  });
}

std::vector<util::Frame> TraceService::handleLint(
    const std::shared_ptr<ServerSession>& session,
    const std::vector<std::string>& tokens) {
  if (tokens.size() != 1) {
    throwUsage("lint expects: <name>");
  }
  return readEntry(session, tokens[0], [](engine::AnalysisEngine& e) {
    return lint::exportLintReportString(*e.lintReport(),
                                        analysis::ExportFormat::Text);
  });
}

std::vector<util::Frame> TraceService::handleStats(
    const std::shared_ptr<ServerSession>& session,
    const std::vector<std::string>& tokens) {
  static_cast<void>(session);  // stats never flushes the reorder window
  if (tokens.empty()) {
    const ServiceStats s = stats();
    std::ostringstream os;
    os << "traces: " << s.traces << '\n'
       << "resident: " << s.residentBytes << " bytes\n"
       << "evictions: " << s.evictions << '\n'
       << "spilled: " << s.spilled << '\n'
       << "rehydrations: " << s.rehydrations << '\n';
    return one(FrameType::Data, os.str());
  }
  if (tokens.size() != 1) {
    throwUsage("stats expects at most one <name>");
  }
  const std::shared_ptr<Entry> entry = requireEntry(tokens[0]);
  if (!entry) {
    return one(FrameType::Evicted, tokens[0]);
  }
  const std::size_t bytes = registry_->bytesOf(*entry);
  std::lock_guard<std::mutex> lock(entry->mutex);
  std::ostringstream os;
  os << "trace: " << entry->name << '\n';
  if (entry->kind == Entry::Kind::Engine) {
    os << "kind: engine\n"
       << "bytes: " << bytes << '\n'
       << engine::formatCacheStats(entry->engine->cacheStats()) << '\n';
  } else {
    os << "kind: live\n"
       << "bytes: " << bytes << '\n'
       << "appends: " << entry->appendsDone << '\n'
       << "segments: "
       << (entry->sos ? entry->sos->segmentsCompleted() : 0) << '\n'
       << "alerts: " << entry->alertsTotal << '\n'
       << "window: " << entry->pending.size() << " chunks, "
       << entry->pendingBytes << " bytes\n"
       << "window-dropped: " << entry->chunksDropped << '\n'
       << "journal: " << (entry->journal ? "on" : "off") << '\n';
  }
  return one(FrameType::Data, os.str());
}

std::vector<util::Frame> TraceService::handleEvict(
    const std::vector<std::string>& tokens) {
  if (tokens.size() != 1) {
    throwUsage("evict expects: <name>");
  }
  std::lock_guard<std::mutex> lock(registry_->mutex);
  const auto it = registry_->entries.find(tokens[0]);
  if (it == registry_->entries.end()) {
    if (registry_->spilled.count(tokens[0]) > 0) {
      // Explicit eviction of a spilled name: the user wants it gone, so
      // drop the rehydration path too.
      registry_->spilled.erase(tokens[0]);
      registry_->tombstones.insert(tokens[0]);
      return one(FrameType::Ok, "evicted " + tokens[0]);
    }
    if (registry_->tombstones.count(tokens[0]) > 0) {
      return one(FrameType::Evicted, tokens[0]);
    }
    throwUnknownTrace(tokens[0]);
  }
  // Explicit eviction is a drop, never a spill: rehydration is for the
  // budget's evictions, not the user's.
  registry_->evictLocked(it, /*spill=*/false);
  return one(FrameType::Ok, "evicted " + tokens[0]);
}

std::vector<util::Frame> TraceService::handleSubscribe(
    const std::shared_ptr<ServerSession>& session,
    const std::vector<std::string>& tokens) {
  if (tokens.size() != 1) {
    throwUsage("subscribe expects: <name>");
  }
  const std::shared_ptr<Entry> entry = requireEntry(tokens[0]);
  if (!entry) {
    return one(FrameType::Evicted, tokens[0]);
  }
  if (entry->kind != Entry::Kind::Live) {
    throw Error("trace '" + tokens[0] +
                    "' is file-backed; only live traces emit alerts",
                ErrorContext::at(ErrorCode::Generic));
  }
  std::lock_guard<std::mutex> lock(entry->mutex);
  entry->subscribers.push_back(session);
  session->subscriptions.insert(tokens[0]);
  return one(FrameType::Ok, "subscribed " + tokens[0]);
}

}  // namespace perfvar::server
