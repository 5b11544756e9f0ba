#ifndef PERFVAR_SERVER_SERVICE_HPP
#define PERFVAR_SERVER_SERVICE_HPP

/// \file service.hpp
/// TraceService: the transport-independent brain of the analysis server.
///
/// The service keeps multiple traces resident behind the existing
/// content-addressed stage caches and answers protocol requests:
///
///   - `load` opens a trace file as an engine::AnalysisEngine entry, so
///     repeated analyze/export/lint requests are served from its stage
///     caches. Loading an already-resident name with the same path is
///     idempotent (same Ok response) — the determinism anchor of the
///     concurrency tests.
///   - `open` + `append` maintain a LIVE trace: each Append frame carries
///     a self-contained v2 chunk image, decoded with the per-rank block
///     path (trace::appendBinaryBuffer) and fed through
///     analysis::StreamingSos so windowed SOS alerts stream back — to the
///     appending connection (deterministically, before its final Ok) and
///     to every subscribed session.
///   - One read path: analyze/export/lint render both entry kinds through
///     an AnalysisEngine. A loaded entry keeps its engine; a live entry
///     gets a throwaway engine per read over the trace as committed so
///     far, so nothing computed before an append outlives it.
///   - Memory budgets: ServerOptions::maxResidentBytes (global) and
///     maxSessionBytes (per loading session) are enforced by LRU
///     eviction. Evicted names are tombstoned; requests referencing them
///     receive a graceful Evicted frame (not a generic error) until the
///     name is re-loaded or re-opened. With a journal directory set, budget
///     eviction instead spills the entry's source reference (trace file
///     path or journal path) and a later request faults it back in —
///     eviction becomes a cache miss, not data loss.
///   - Durability: with ServerOptions::journalDir set, every accepted
///     Open/Append of a live trace is recorded in a per-trace
///     write-ahead journal (server/journal.hpp) before the request is
///     acknowledged; `recover` replays the journals at construction so a
///     restarted daemon serves the same bytes as the crashed one.
///   - Out-of-order producers: reorderWindowBytes > 0 buffers appended
///     chunks in a bounded per-trace window and commits them in start-time
///     order (on window overflow, oldest first, and before any read), so
///     uncoordinated producers need not serialize their appends. A chunk
///     older than the already-committed tail is rejected with the
///     deterministic chunk-out-of-window error.
///
/// Locking: a registry mutex guards the name -> entry map, tombstones,
/// LRU clocks and byte accounting (every entry's charged bytes are read
/// and written only through the Registry, under that mutex); a per-entry
/// mutex serializes computation on one trace. Handlers take the registry
/// lock only in short lookup/account sections; a registry section may run
/// inside an entry lock (load), never the reverse, so the two cannot
/// deadlock. Responses are deterministic per request (given the same resident
/// state), which is what the serial-vs-concurrent differential test
/// leans on.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "server/journal.hpp"
#include "server/protocol.hpp"
#include "trace/binary_io.hpp"
#include "util/framing.hpp"

namespace perfvar::engine {
class AnalysisEngine;
}

namespace perfvar::server {

/// Construction-time options of a TraceService / Server.
struct ServerOptions {
  /// Worker threads of trace decode and of each engine's analysis stages
  /// (a loaded entry's resident engine, a live read's throwaway one):
  /// 1 = inline, 0 = hardware concurrency.
  std::size_t threads = 1;
  /// Per-engine derived-stage cache capacity (EngineOptions equivalent).
  std::size_t maxCacheEntries = 64;
  /// Global memory budget over all resident traces in bytes
  /// (trace::approxMemoryBytes accounting); 0 = unlimited. Exceeding it
  /// evicts least-recently-used entries (never the one being touched).
  std::size_t maxResidentBytes = 0;
  /// Per-session budget over the traces a session loaded; 0 = unlimited.
  std::size_t maxSessionBytes = 0;
  /// Directory of per-trace write-ahead journals; empty = journaling off
  /// (the pre-durability behavior, byte-identical on the wire). When set,
  /// budget eviction also spills: an evicted entry keeps its source
  /// reference (trace file path or journal path) and the next request
  /// that names it faults it back in, instead of being tombstoned.
  std::string journalDir;
  /// Replay the journals found in journalDir at construction,
  /// reconstructing every live entry the crashed daemon had accepted.
  bool recover = false;
  /// fsync the journal after every record. Off, durability extends to
  /// the OS page cache (daemon crash safe, host crash not).
  bool journalFsync = false;
  /// Byte budget of the per-live-trace out-of-order reorder window;
  /// 0 = appends must arrive time-ordered (the pre-window behavior).
  std::size_t reorderWindowBytes = 0;
  /// Per-send poll timeout in milliseconds: a peer whose socket stays
  /// unwritable this long is treated as dead and its sender deactivates
  /// (0 = block indefinitely, the pre-timeout behavior).
  int sendTimeoutMs = 5000;
  /// Byte bound of a subscriber's queued undelivered alert frames;
  /// beyond it new alerts are dropped and summarized by a `dropped=N`
  /// marker frame once the queue drains.
  std::size_t alertQueueBytes = 1 << 20;
};

/// Delivery policy of a Sender (derived from ServerOptions).
struct SenderOptions {
  int sendTimeoutMs = 5000;          ///< 0 = block indefinitely
  std::size_t alertQueueBytes = 1 << 20;
};

/// Thread-safe frame sink of one connection. send() never throws: a
/// failed write (peer gone) or a stalled peer (per-send poll timeout)
/// deactivates the sender and every later send becomes a no-op, so alert
/// broadcasts cannot poison an append handler.
///
/// Alert fan-out is decoupled from the peer's read pace: enqueueAlert()
/// appends the frame's wire bytes to a bounded in-memory queue and
/// flushes opportunistically without ever blocking. When the queue is
/// full, new alerts are dropped and coalesced into a single
/// `dropped=N` Alert marker frame emitted once space frees, so a slow
/// subscriber costs bounded memory and zero append latency. send()
/// always drains the queue first, keeping each connection's frame order
/// intact.
class Sender {
public:
  explicit Sender(int fd, SenderOptions options = {})
      : fd_(fd), options_(options) {}

  /// Write one frame (queued alerts first); returns false when the
  /// sender is (or just became) inactive.
  bool send(FrameType type, std::string_view payload);

  /// Queue one Alert frame without blocking; drops-and-counts beyond the
  /// queue bound. Returns false when the sender is inactive.
  bool enqueueAlert(std::string_view line);

  /// Nonblocking best-effort flush of queued bytes; returns false when
  /// the sender is inactive.
  bool pumpAlerts();

  /// Stop sending (session teardown).
  void deactivate();

  bool active() const;

  /// Alerts dropped over the sender's lifetime (slow-consumer policy).
  std::uint64_t alertsDropped() const;

private:
  bool flushLocked(bool waitForDrain);
  void queueDropMarkerLocked();

  mutable std::mutex mutex_;
  int fd_;
  SenderOptions options_;
  bool active_ = true;
  std::string outbuf_;  ///< queued wire bytes (alerts, partial writes)
  std::uint64_t droppedPending_ = 0;  ///< drops awaiting a marker frame
  std::uint64_t droppedTotal_ = 0;
};

/// Per-connection session state. Created by openSession(), passed to
/// every handle() call of that connection.
struct ServerSession {
  std::uint64_t id = 0;
  std::shared_ptr<Sender> sender;
  /// Live-trace names this session subscribed to (alert delivery).
  std::set<std::string> subscriptions;
};

/// Server-wide counters (the no-argument `stats` request).
struct ServiceStats {
  std::size_t traces = 0;
  std::size_t residentBytes = 0;
  std::uint64_t evictions = 0;
  std::size_t spilled = 0;        ///< evicted entries waiting on disk
  std::uint64_t rehydrations = 0; ///< spilled entries faulted back in
};

class TraceService {
public:
  explicit TraceService(ServerOptions options = {});
  ~TraceService();

  TraceService(const TraceService&) = delete;
  TraceService& operator=(const TraceService&) = delete;

  const ServerOptions& options() const { return options_; }

  /// Register a new connection; the returned session identifies it in
  /// every later handle() call.
  std::shared_ptr<ServerSession> openSession(std::shared_ptr<Sender> sender);

  /// Unregister a connection. Its loaded traces stay resident (a server
  /// outlives its clients); its subscriptions die with it.
  void closeSession(const std::shared_ptr<ServerSession>& session);

  /// Answer one request frame: returns the ordered response frames for
  /// the requesting connection, ending in exactly one final frame.
  /// Errors — protocol violations, unknown names, corrupt chunks — come
  /// back as Error frames; handle() itself only throws on programming
  /// errors. Alert frames for OTHER subscribed sessions are delivered
  /// through their senders as a side effect.
  std::vector<util::Frame> handle(
      const std::shared_ptr<ServerSession>& session,
      const util::Frame& request);

  /// Current server-wide counters.
  ServiceStats stats() const;

  /// fsync every live entry's journal (graceful drain / SIGTERM).
  void syncJournals();

private:
  struct Entry;
  class Registry;

  /// Find a resident trace by name and bump its LRU clock. A spilled name
  /// is rebuilt from its journal / source file and re-registered under
  /// the budgets first; when that source is gone the name degrades to a
  /// tombstone. Returns null for a name that is not resident, setting
  /// `*evicted` when it was evicted (tombstoned) rather than never known.
  std::shared_ptr<Entry> resolveEntry(const std::string& name,
                                      bool* evicted = nullptr);

  /// resolveEntry for a request naming a trace: the resident entry, or
  /// null when the name was evicted (the caller answers Evicted). Throws
  /// the unknown-trace error for a name that never existed.
  std::shared_ptr<Entry> requireEntry(const std::string& name);

  /// Replay every journal in options_.journalDir into resident live
  /// entries (construction with recover set). Unreadable journals are
  /// skipped, never fatal.
  void recoverJournals();

  /// Rebuild a live entry by replaying its journal (torn tails are
  /// truncated first). `expectedName` guards rehydration against a
  /// renamed journal file; nullptr accepts the header's name (recovery).
  std::shared_ptr<Entry> buildLiveFromJournal(const std::string& path,
                                              const std::string* expectedName);

  /// Rebuild an engine entry from its trace file (rehydration).
  std::shared_ptr<Entry> buildEngineEntry(const std::string& name,
                                          const std::string& path);

  /// Load `e.path` into `e.engine` and set the "loaded ..." message.
  /// Leaves `e.bytes` (registry-guarded) to the caller.
  void loadEngineLocked(Entry& e) const;

  // -- live-entry helpers; all *Locked members expect the entry lock --

  /// Append one chunk image to the live trace and feed the streaming
  /// analyzer exactly the appended tail. Atomic: a chunk the trace or the
  /// analyzer rejects throws and leaves the entry as it was.
  trace::AppendStats commitChunkLocked(Entry& e, std::string_view image);

  /// Insert a chunk image into the reorder window, after every chunk
  /// starting at or before `start`.
  static void bufferChunkLocked(Entry& e, std::string_view image,
                                trace::Timestamp start);

  /// Commit the earliest reorder-window chunk. A chunk the trace rejects
  /// is dropped and counted — its producer was acknowledged long ago, so
  /// the error has no addressee (replay does the same, keeping recovery
  /// deterministic).
  void commitEarliestLocked(Entry& e);

  /// Commit earliest-first until the window holds at most `targetBytes`;
  /// writes one journal Flush record covering the processed chunks.
  /// Returns the number of chunks processed (committed + dropped).
  std::size_t flushWindowToLocked(Entry& e, std::size_t targetBytes);

  /// Append one journal record; a journal write failure permanently
  /// disables the entry's journal (durability lost, loudly) and rethrows.
  void journalRecordLocked(Entry& e, JournalRecordType type,
                           std::string_view payload);

  /// Format-and-clear pendingAlerts into "name: alert" lines, keeping
  /// the lifetime counter.
  std::vector<std::string> drainAlertsLocked(Entry& e);

  /// Deliver alert lines: queued to every other subscribed session's
  /// sender, appended to `out` for the requester when it subscribed.
  void broadcastAlertsLocked(Entry& e,
                             const std::shared_ptr<ServerSession>& session,
                             const std::vector<std::string>& lines,
                             std::vector<util::Frame>& out);

  /// Commit the whole reorder window before a read so reads observe all
  /// accepted data; delivers the resulting alerts. Returns the number of
  /// chunks processed (0 = nothing buffered, no side effects).
  std::size_t flushForReadLocked(Entry& e,
                                 const std::shared_ptr<ServerSession>& session,
                                 std::vector<util::Frame>& out);

  /// The bytes an entry is charged with: its trace, plus a live entry's
  /// reorder window. Expects the entry lock (or an unpublished entry).
  static std::size_t footprintLocked(const Entry& e);

  /// The one read path of analyze/export/lint: resolve `name`, flush its
  /// reorder window, render through an engine and re-account what the
  /// flush committed. An engine entry renders through its own cached
  /// engine, a live entry through a throwaway engine over the trace as
  /// committed so far. Answers Evicted for an evicted name.
  std::vector<util::Frame> readEntry(
      const std::shared_ptr<ServerSession>& session, const std::string& name,
      const std::function<std::string(engine::AnalysisEngine&)>& render);

  std::vector<util::Frame> dispatch(
      const std::shared_ptr<ServerSession>& session,
      const util::Frame& request);

  std::vector<util::Frame> handleLoad(const std::shared_ptr<ServerSession>&,
                                      const std::vector<std::string>& tokens);
  std::vector<util::Frame> handleOpen(const std::shared_ptr<ServerSession>&,
                                      const std::vector<std::string>& tokens);
  std::vector<util::Frame> handleAppend(const std::shared_ptr<ServerSession>&,
                                        std::string_view payload);
  std::vector<util::Frame> handleAnalyze(const std::shared_ptr<ServerSession>&,
                                         const std::vector<std::string>&);
  std::vector<util::Frame> handleExport(const std::shared_ptr<ServerSession>&,
                                        const std::vector<std::string>&);
  std::vector<util::Frame> handleLint(const std::shared_ptr<ServerSession>&,
                                      const std::vector<std::string>&);
  std::vector<util::Frame> handleStats(const std::shared_ptr<ServerSession>&,
                                       const std::vector<std::string>&);
  std::vector<util::Frame> handleEvict(const std::vector<std::string>&);
  std::vector<util::Frame> handleSubscribe(
      const std::shared_ptr<ServerSession>&,
      const std::vector<std::string>& tokens);

  ServerOptions options_;
  std::unique_ptr<Registry> registry_;
};

}  // namespace perfvar::server

#endif  // PERFVAR_SERVER_SERVICE_HPP
