/// Streaming-equivalence differential over the analysis server: a trace
/// fed block-by-block through `append` must yield the same final analysis
/// report — byte for byte — and the same SOS alert sequence as (a) the
/// whole trace appended in one shot and (b) the same trace loaded from a
/// file into an engine entry. Plus the memory-budget contract: exceeding
/// a budget evicts LRU entries, evicted names answer Evicted frames, and
/// re-loading resurrects them.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/export.hpp"
#include "analysis/pipeline.hpp"
#include "lint/lint.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "trace/binary_io.hpp"
#include "trace/builder.hpp"
#include "trace/filter.hpp"
#include "util/socket.hpp"

namespace perfvar::server {
namespace {

/// Client connected to its own in-process server.
struct Rig {
  Server server;
  Client client;

  explicit Rig(ServerOptions options = {})
      : server(options), client(connect(server)) {}

  static Client connect(Server& server) {
    auto [serverEnd, clientEnd] = util::socketPair();
    server.serveConnection(std::move(serverEnd));
    return Client{std::move(clientEnd)};
  }
};

/// Two ranks, 100 iterations, one 10x outlier on rank 1 iteration 70 —
/// late enough that the default streaming warmup has history to flag it.
trace::Trace outlierTrace() {
  trace::TraceBuilder b(2);
  const auto fStep = b.defineFunction("step");
  const auto fSync = b.defineFunction("MPI_Barrier", "MPI",
                                      trace::Paradigm::MPI);
  for (std::size_t i = 0; i < 100; ++i) {
    for (trace::ProcessId p = 0; p < 2; ++p) {
      const auto t0 = static_cast<trace::Timestamp>(i) * 1000 + p;
      const trace::Timestamp w =
          (p == 1 && i == 70) ? 900 : 90 + (p * 5 + i * 3) % 7;
      b.enter(p, t0, fStep);
      b.enter(p, t0 + 2, fSync);
      b.leave(p, t0 + 4 + (p + i) % 3, fSync);
      b.leave(p, t0 + w, fStep);
    }
  }
  return b.finish();
}

std::string imageOf(const trace::Trace& tr) {
  std::ostringstream os;
  trace::writeBinary(tr, os);
  return os.str();
}

/// Outcome of streaming one trace into a server: the final report and
/// export plus every alert in arrival order.
struct StreamOutcome {
  std::string report;
  std::string exported;
  std::vector<std::string> alerts;
};

StreamOutcome streamInChunks(Client& c, const trace::Trace& tr,
                             std::size_t chunks) {
  EXPECT_TRUE(c.open("live", "step threshold 6.0").ok());
  EXPECT_TRUE(c.subscribe("live").ok());
  StreamOutcome out;
  for (const trace::Trace& chunk : trace::splitByTime(tr, chunks)) {
    const ClientResponse r = c.append("live", imageOf(chunk));
    EXPECT_TRUE(r.ok()) << r.payload;
    out.alerts.insert(out.alerts.end(), r.alerts.begin(), r.alerts.end());
  }
  const ClientResponse report = c.analyze("live");
  EXPECT_EQ(report.type, FrameType::Data);
  out.report = report.payload;
  const ClientResponse exported = c.exportReport("live json");
  EXPECT_EQ(exported.type, FrameType::Data);
  out.exported = exported.payload;
  return out;
}

TEST(ServerStreaming, ChunkedAppendEqualsOneShotAppend) {
  const trace::Trace tr = outlierTrace();
  Rig oneShot;
  Rig chunked;
  const StreamOutcome a = streamInChunks(oneShot.client, tr, 1);
  const StreamOutcome b = streamInChunks(chunked.client, tr, 7);
  EXPECT_FALSE(a.report.empty());
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.exported, b.exported);
  ASSERT_FALSE(a.alerts.empty());  // the outlier must be flagged at all
  EXPECT_EQ(a.alerts, b.alerts);
  EXPECT_NE(a.alerts.front().find("process 1"), std::string::npos);
  EXPECT_NE(a.alerts.front().find("segment 70"), std::string::npos);
}

TEST(ServerStreaming, StreamedTraceEqualsFileLoadedEngine) {
  const trace::Trace tr = outlierTrace();
  const std::string path = "server_streaming_test.pvt";
  trace::saveBinaryFile(tr, path);

  Rig streamed;
  const StreamOutcome live = streamInChunks(streamed.client, tr, 5);

  Rig fileBacked;
  ASSERT_TRUE(fileBacked.client.load("disk", path).ok());
  const ClientResponse report = fileBacked.client.analyze("disk");
  ASSERT_EQ(report.type, FrameType::Data);
  EXPECT_EQ(report.payload, live.report);
  const ClientResponse exported = fileBacked.client.exportReport("disk json");
  ASSERT_EQ(exported.type, FrameType::Data);
  EXPECT_EQ(exported.payload, live.exported);
  // The lint view agrees too (live lints on demand, engines cache it).
  const ClientResponse lintLive = streamed.client.lint("live");
  const ClientResponse lintDisk = fileBacked.client.lint("disk");
  ASSERT_EQ(lintLive.type, FrameType::Data);
  EXPECT_EQ(lintLive.payload, lintDisk.payload);
}

TEST(ServerStreaming, ChunkCountsAreReportedPerAppend) {
  const trace::Trace tr = outlierTrace();
  Rig rig;
  ASSERT_TRUE(rig.client.open("live", "step").ok());
  std::size_t events = 0;
  for (const trace::Trace& chunk : trace::splitByTime(tr, 4)) {
    const ClientResponse r = rig.client.append("live", imageOf(chunk));
    ASSERT_TRUE(r.ok());
    EXPECT_NE(r.payload.find(std::to_string(chunk.eventCount()) + " events"),
              std::string::npos)
        << r.payload;
    events += chunk.eventCount();
  }
  EXPECT_EQ(events, tr.eventCount());
  const ClientResponse stats = rig.client.stats("live");
  ASSERT_EQ(stats.type, FrameType::Data);
  EXPECT_NE(stats.payload.find("appends: 4"), std::string::npos);
  EXPECT_NE(stats.payload.find("segments: 200"), std::string::npos);
}

// ---- re-reads of a growing live trace ---------------------------------------

/// Alternate appends with reads: after each append, analyze, export and
/// lint must render exactly the chunks committed so far — the offline
/// pipeline over the same prefix, byte for byte. A read that served a
/// result computed before the latest append fails here.
void expectRereadsFollowCommits(ServerOptions options) {
  const trace::Trace tr = outlierTrace();
  Rig rig(options);
  ASSERT_TRUE(rig.client.open("live", "step threshold 6.0").ok());
  trace::Trace committed;
  for (const trace::Trace& chunk : trace::splitByTime(tr, 5)) {
    const std::string image = imageOf(chunk);
    const ClientResponse appended = rig.client.append("live", image);
    ASSERT_TRUE(appended.ok()) << appended.payload;
    trace::appendBinaryBuffer(committed, image.data(), image.size());
    const analysis::AnalysisResult result = analysis::analyzeTrace(committed);

    const ClientResponse report = rig.client.analyze("live");
    ASSERT_EQ(report.type, FrameType::Data) << report.payload;
    EXPECT_EQ(report.payload, analysis::formatAnalysis(committed, result));
    const ClientResponse exported = rig.client.exportReport("live json");
    ASSERT_EQ(exported.type, FrameType::Data) << exported.payload;
    EXPECT_EQ(exported.payload,
              analysis::exportReportString(committed, result,
                                           analysis::ExportFormat::Json));
    const ClientResponse linted = rig.client.lint("live");
    ASSERT_EQ(linted.type, FrameType::Data) << linted.payload;
    EXPECT_EQ(linted.payload,
              lint::exportLintReportString(lint::lintTrace(committed),
                                           analysis::ExportFormat::Text));
  }
  const ClientResponse stats = rig.client.stats("live");
  EXPECT_NE(stats.payload.find("segments: 200"), std::string::npos)
      << stats.payload;
}

TEST(ServerStreaming, RereadsBetweenAppendsFollowTheCommittedChunks) {
  expectRereadsFollowCommits(ServerOptions{});
}

TEST(ServerStreaming, RereadsThatFlushTheWindowFollowTheCommittedChunks) {
  // Every append lands in the window; the analyze after it commits it.
  ServerOptions options;
  options.reorderWindowBytes = 64 * 1024 * 1024;
  expectRereadsFollowCommits(options);
}

// ---- memory budgets --------------------------------------------------------

TEST(ServerStreaming, GlobalBudgetEvictsLeastRecentlyUsed) {
  const trace::Trace tr = outlierTrace();
  const std::string path = "server_streaming_budget.pvt";
  trace::saveBinaryFile(tr, path);

  ServerOptions options;
  options.maxResidentBytes = 1;  // nothing fits: every new load evicts
  Rig rig(options);
  ASSERT_TRUE(rig.client.load("a", path).ok());
  ASSERT_TRUE(rig.client.load("b", path).ok());
  // "a" was least recently used and had to go.
  EXPECT_EQ(rig.client.analyze("a").type, FrameType::Evicted);
  EXPECT_EQ(rig.client.evict("a").type, FrameType::Evicted);
  // "b" is the entry just touched; it may exceed the budget alone and
  // must NOT be evicted to make room for nothing.
  EXPECT_TRUE(rig.client.analyze("b").ok());
  const ClientResponse stats = rig.client.stats();
  ASSERT_EQ(stats.type, FrameType::Data);
  EXPECT_NE(stats.payload.find("evictions: 1"), std::string::npos)
      << stats.payload;
  // Re-loading resurrects the name.
  ASSERT_TRUE(rig.client.load("a", path).ok());
  EXPECT_TRUE(rig.client.analyze("a").ok());
}

TEST(ServerStreaming, SessionBudgetDoesNotEvictOtherSessions) {
  const trace::Trace tr = outlierTrace();
  // Not the file of GlobalBudgetEvictsLeastRecentlyUsed: ctest -j runs the
  // two concurrently, and rewriting a file another process has mapped
  // faults that process.
  const std::string path = "server_streaming_session_budget.pvt";
  trace::saveBinaryFile(tr, path);

  ServerOptions options;
  options.maxSessionBytes = 1;  // one resident trace per session, at most
  Server server(options);
  Client one = Rig::connect(server);
  Client two = Rig::connect(server);
  ASSERT_TRUE(two.load("other", path).ok());
  ASSERT_TRUE(one.load("a", path).ok());
  ASSERT_TRUE(one.load("b", path).ok());
  // Session one's older trace was evicted; session two's is untouched.
  EXPECT_EQ(one.analyze("a").type, FrameType::Evicted);
  EXPECT_TRUE(one.analyze("b").ok());
  EXPECT_TRUE(two.analyze("other").ok());
}

TEST(ServerStreaming, ExplicitEvictionFreesTheName) {
  const trace::Trace tr = outlierTrace();
  Rig rig;
  ASSERT_TRUE(rig.client.open("live", "step").ok());
  ASSERT_TRUE(rig.client.append("live", imageOf(tr)).ok());
  EXPECT_EQ(rig.client.evict("live").type, FrameType::Ok);
  EXPECT_EQ(rig.client.analyze("live").type, FrameType::Evicted);
  EXPECT_EQ(rig.client.append("live", imageOf(tr)).type, FrameType::Evicted);
  // Reopening clears the tombstone and starts a fresh stream.
  ASSERT_TRUE(rig.client.open("live", "step").ok());
  const ClientResponse r = rig.client.append("live", imageOf(tr));
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.payload.find("200 segments"), std::string::npos) << r.payload;
}

// ---- the reorder window ----------------------------------------------------

TEST(ServerStreaming, ReorderWindowMakesScrambledDeliveryEqualOrdered) {
  const trace::Trace tr = outlierTrace();
  const std::vector<trace::Trace> chunks = trace::splitByTime(tr, 7);
  const std::size_t scrambled[] = {3, 0, 2, 1, 6, 4, 5};

  // Ordered delivery through a window-less server: the baseline.
  Rig ordered;
  const StreamOutcome a = streamInChunks(ordered.client, tr, 7);

  // Scrambled delivery through a generous window.
  ServerOptions options;
  options.reorderWindowBytes = 64 * 1024 * 1024;
  Rig rig(options);
  ASSERT_TRUE(rig.client.open("live", "step threshold 6.0").ok());
  ASSERT_TRUE(rig.client.subscribe("live").ok());
  for (const std::size_t i : scrambled) {
    const ClientResponse r = rig.client.append("live", imageOf(chunks[i]));
    ASSERT_TRUE(r.ok()) << r.payload;
    EXPECT_NE(r.payload.find("buffered live:"), std::string::npos)
        << r.payload;
  }
  // Reads flush the window in time order: analysis and export are
  // byte-identical to the time-ordered, unbuffered delivery.
  const ClientResponse report = rig.client.analyze("live");
  ASSERT_EQ(report.type, FrameType::Data);
  EXPECT_EQ(report.payload, a.report);
  const ClientResponse exported = rig.client.exportReport("live json");
  ASSERT_EQ(exported.type, FrameType::Data);
  EXPECT_EQ(exported.payload, a.exported);
  // The flush delivered the same alert sequence to the subscriber (they
  // ride the read's response stream, Alert frames before the Data).
  ASSERT_FALSE(a.alerts.empty());
  EXPECT_EQ(report.alerts, a.alerts);
}

TEST(ServerStreaming, WindowOverflowFlushesEarliestChunksFirst) {
  const trace::Trace tr = outlierTrace();
  const std::vector<trace::Trace> chunks = trace::splitByTime(tr, 4);

  ServerOptions options;
  options.reorderWindowBytes = 1;  // every event-carrying chunk overflows
  Rig rig(options);
  ASSERT_TRUE(rig.client.open("live", "step threshold 6.0").ok());
  for (const trace::Trace& chunk : chunks) {
    const ClientResponse r = rig.client.append("live", imageOf(chunk));
    ASSERT_TRUE(r.ok()) << r.payload;
    // The chunk enters the window, immediately overflows the 1-byte
    // bound, and is flushed (committed) right back out.
    EXPECT_NE(r.payload.find("flushed 1 chunks"), std::string::npos)
        << r.payload;
  }
  const ClientResponse stats = rig.client.stats("live");
  ASSERT_EQ(stats.type, FrameType::Data);
  EXPECT_NE(stats.payload.find("window: 0 chunks, 0 bytes"),
            std::string::npos)
      << stats.payload;
  EXPECT_NE(stats.payload.find("segments: 200"), std::string::npos);
}

TEST(ServerStreaming, ChunkBehindTheCommittedTailIsAStructuredError) {
  const trace::Trace tr = outlierTrace();
  const std::vector<trace::Trace> chunks = trace::splitByTime(tr, 4);

  ServerOptions options;
  options.reorderWindowBytes = 1;  // tiny: every append commits at once
  Rig rig(options);
  ASSERT_TRUE(rig.client.open("live", "step threshold 6.0").ok());
  ASSERT_TRUE(rig.client.append("live", imageOf(chunks[2])).ok());
  // chunks[0] starts before the committed tail: the window has already
  // flushed past it, and the error says so deterministically.
  const ClientResponse r = rig.client.append("live", imageOf(chunks[0]));
  ASSERT_EQ(r.type, FrameType::Error);
  EXPECT_EQ(r.error().code, ErrorCode::ChunkOutOfWindow) << r.error().message;
  EXPECT_NE(r.error().message.find("reorder window"), std::string::npos);
  // The stream is still healthy for in-order progress.
  EXPECT_TRUE(rig.client.append("live", imageOf(chunks[3])).ok());
}

TEST(ServerStreaming, StatsObserveTheWindowWithoutFlushingIt) {
  const trace::Trace tr = outlierTrace();
  const std::vector<trace::Trace> chunks = trace::splitByTime(tr, 3);

  ServerOptions options;
  options.reorderWindowBytes = 64 * 1024 * 1024;
  Rig rig(options);
  ASSERT_TRUE(rig.client.open("live", "step threshold 6.0").ok());
  ASSERT_TRUE(rig.client.append("live", imageOf(chunks[1])).ok());
  const ClientResponse stats = rig.client.stats("live");
  ASSERT_EQ(stats.type, FrameType::Data);
  EXPECT_NE(stats.payload.find("window: 1 chunks"), std::string::npos)
      << stats.payload;
  EXPECT_NE(stats.payload.find("journal: off"), std::string::npos);
  // stats did not flush: a second stats still sees the buffered chunk.
  const ClientResponse again = rig.client.stats("live");
  EXPECT_NE(again.payload.find("window: 1 chunks"), std::string::npos);
  // Complete the stream (still buffered), then read: a read does flush,
  // committing all three chunks in time order.
  ASSERT_TRUE(rig.client.append("live", imageOf(chunks[0])).ok());
  ASSERT_TRUE(rig.client.append("live", imageOf(chunks[2])).ok());
  const ClientResponse full = rig.client.stats("live");
  EXPECT_NE(full.payload.find("window: 3 chunks"), std::string::npos)
      << full.payload;
  const ClientResponse analyzed = rig.client.analyze("live");
  ASSERT_EQ(analyzed.type, FrameType::Data) << analyzed.payload;
  const ClientResponse after = rig.client.stats("live");
  EXPECT_NE(after.payload.find("window: 0 chunks"), std::string::npos);
}

}  // namespace
}  // namespace perfvar::server
