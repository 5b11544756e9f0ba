/// Crash-recovery differentials over the journaled analysis server: a
/// server killed at any journal kill point and restarted with recovery
/// must serve analyze/export byte-identical to a server that was fed the
/// same committed prefix and never died. "Killed" is simulated by
/// dropping the Server (the journal survives on disk exactly as a
/// SIGKILL would leave it — acknowledged records present, nothing else)
/// plus a truncation sweep that cuts the journal at record boundaries
/// and mid-record to model writes torn by the crash itself. Also the
/// evict-to-disk rehydration contract: with a journal directory set, a
/// budget-evicted trace is cold, not gone.

#include <gtest/gtest.h>

#include <unistd.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/client.hpp"
#include "server/journal.hpp"
#include "server/server.hpp"
#include "trace/binary_io.hpp"
#include "trace/builder.hpp"
#include "trace/filter.hpp"
#include "util/error.hpp"
#include "util/socket.hpp"

namespace perfvar::server {
namespace {

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

std::string scratchDir(const std::string& stem) {
  const std::string dir = stem + "_" + std::to_string(getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

/// Same fixture as server_streaming_test: two ranks, 100 iterations, one
/// 10x outlier late enough for the default warmup to flag it.
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

/// The queryable face of a live trace, captured for differentials.
/// Error finals are captured too (type + payload), so "recovered to an
/// empty stream" states compare exactly as well.
struct Face {
  FrameType analyzeType = FrameType::Error;
  std::string analyze;
  FrameType exportType = FrameType::Error;
  std::string exported;

  bool operator==(const Face& other) const {
    return analyzeType == other.analyzeType && analyze == other.analyze &&
           exportType == other.exportType && exported == other.exported;
  }
};

Face faceOf(Client& c, const std::string& name) {
  Face f;
  const ClientResponse a = c.analyze(name);
  f.analyzeType = a.type;
  f.analyze = a.payload;
  const ClientResponse e = c.exportReport(name + " json");
  f.exportType = e.type;
  f.exported = e.payload;
  return f;
}

/// Reference: a never-journaled, never-killed server fed chunks[0..k).
Face referenceFace(const std::vector<trace::Trace>& chunks, std::size_t k,
                   std::size_t threads = 1) {
  ServerOptions options;
  options.threads = threads;
  Rig rig(options);
  EXPECT_TRUE(rig.client.open("live", "step threshold 6.0").ok());
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_TRUE(rig.client.append("live", imageOf(chunks[i])).ok());
  }
  return faceOf(rig.client, "live");
}

// ---- basic crash / recover -------------------------------------------------

TEST(ServerRecovery, RecoverReconstructsTheLiveTraceByteIdentical) {
  const std::string dir = scratchDir("recovery_basic");
  const trace::Trace tr = outlierTrace();
  const std::vector<trace::Trace> chunks = trace::splitByTime(tr, 5);

  Face before;
  {
    ServerOptions options;
    options.journalDir = dir;
    Rig rig(options);
    ASSERT_TRUE(rig.client.open("live", "step threshold 6.0").ok());
    for (const trace::Trace& chunk : chunks) {
      ASSERT_TRUE(rig.client.append("live", imageOf(chunk)).ok());
    }
    before = faceOf(rig.client, "live");
    ASSERT_EQ(before.analyzeType, FrameType::Data);
  }  // SIGKILL: the Server dies without any farewell; the journal stays.

  ServerOptions options;
  options.journalDir = dir;
  options.recover = true;
  Rig revived(options);
  EXPECT_TRUE(faceOf(revived.client, "live") == before);
  // The recovered stream is appendable: journaling continues seamlessly.
  ASSERT_TRUE(revived.client.open("more", "step").ok());
  ASSERT_TRUE(revived.client.append("live", imageOf(chunks[0])).type ==
              FrameType::Error)  // stale chunk: stream already past it
      << "appending an old chunk to the recovered stream must fail the "
         "same way it would have before the crash";
  std::filesystem::remove_all(dir);
}

TEST(ServerRecovery, RecoveryMatchesTheUninterruptedRunAcrossThreads) {
  const std::string dir = scratchDir("recovery_threads");
  const trace::Trace tr = outlierTrace();
  const std::vector<trace::Trace> chunks = trace::splitByTime(tr, 4);

  {
    ServerOptions options;
    options.journalDir = dir;
    Rig rig(options);
    ASSERT_TRUE(rig.client.open("live", "step threshold 6.0").ok());
    for (const trace::Trace& chunk : chunks) {
      ASSERT_TRUE(rig.client.append("live", imageOf(chunk)).ok());
    }
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    ServerOptions options;
    options.journalDir = dir;
    options.recover = true;
    options.threads = threads;
    Rig revived(options);
    const Face recovered = faceOf(revived.client, "live");
    EXPECT_TRUE(recovered == referenceFace(chunks, chunks.size(), threads))
        << "threads=" << threads;
  }
  std::filesystem::remove_all(dir);
}

// ---- kill-point sweep ------------------------------------------------------

/// Cut the journal at every record boundary and at offsets inside every
/// record (a write torn mid-record), recover each cut, and demand the
/// recovered state equals the uninterrupted reference fed exactly the
/// chunks whose records survived the cut. This is the "SIGKILL at any
/// point mid-append" differential: the journal on disk after a real kill
/// is precisely one of these prefixes.
TEST(ServerRecovery, EveryKillPointRecoversToTheCommittedPrefix) {
  const std::string dir = scratchDir("recovery_killpoints");
  const trace::Trace tr = outlierTrace();
  const std::vector<trace::Trace> chunks = trace::splitByTime(tr, 4);

  std::string journalPath;
  {
    ServerOptions options;
    options.journalDir = dir;
    Rig rig(options);
    ASSERT_TRUE(rig.client.open("live", "step threshold 6.0").ok());
    for (const trace::Trace& chunk : chunks) {
      ASSERT_TRUE(rig.client.append("live", imageOf(chunk)).ok());
    }
    const std::vector<std::string> journals = listJournals(dir);
    ASSERT_EQ(journals.size(), 1u);
    journalPath = journals[0];
  }

  std::ifstream in(journalPath, std::ios::binary);
  const std::string full((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();

  // Record boundaries, from the scanner itself: boundary[k] = bytes
  // holding the header plus k records (records[0] is the Open).
  std::vector<std::size_t> boundaries;
  {
    const JournalScan scan = scanJournal(journalPath);
    ASSERT_EQ(scan.records.size(), 1 + chunks.size());
    std::size_t offset = scan.validBytes;
    ASSERT_EQ(offset, full.size());
    // Rebuild boundaries by rescanning successive cuts — O(n^2) over a
    // tiny file, and it uses only the public contract.
    for (std::size_t len = 0; len <= full.size(); ++len) {
      const std::string cutDirStep = dir + "/probe";
      std::filesystem::create_directories(cutDirStep);
      const std::string probe = cutDirStep + "/" + journalFileName("live");
      std::ofstream out(probe, std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(len));
      out.close();
      try {
        const JournalScan cut = scanJournal(probe);
        if (!cut.torn && boundaries.size() == cut.records.size()) {
          boundaries.push_back(len);
        }
      } catch (const Error&) {
        // header region: not a kill point we can recover from
      }
    }
    ASSERT_EQ(boundaries.size(), 2 + chunks.size());  // header + each record
  }

  // Reference faces: state after k committed appends.
  std::vector<Face> references;
  for (std::size_t k = 0; k <= chunks.size(); ++k) {
    references.push_back(referenceFace(chunks, k));
  }

  const std::string cutDir = dir + "/cut";
  // Kill points: each boundary, and three torn offsets inside each
  // record (just after the boundary, mid-record, just before the next).
  for (std::size_t b = 1; b < boundaries.size(); ++b) {
    const std::size_t lo = boundaries[b - 1];
    const std::size_t hi = boundaries[b];
    for (const std::size_t len :
         {hi, lo + 1, (lo + hi) / 2, hi - 1}) {
      if (len < boundaries[0]) {
        continue;  // would damage the header, covered by the journal test
      }
      std::filesystem::remove_all(cutDir);
      std::filesystem::create_directories(cutDir);
      const std::string cut = cutDir + "/" + journalFileName("live");
      {
        std::ofstream out(cut, std::ios::binary | std::ios::trunc);
        out.write(full.data(), static_cast<std::streamsize>(len));
      }
      // How many records survive this cut? Torn tails count for nothing.
      std::size_t survivors = 0;
      while (survivors + 1 < boundaries.size() &&
             boundaries[survivors + 1] <= len) {
        ++survivors;
      }

      ServerOptions options;
      options.journalDir = cutDir;
      options.recover = true;
      Rig revived(options);
      if (survivors == 0) {
        // The crash tore the Open record itself: the open was never
        // acknowledged, so there is rightly nothing to recover.
        EXPECT_EQ(revived.client.analyze("live").type, FrameType::Error)
            << "kill point at byte " << len;
        continue;
      }
      const std::size_t committed = survivors - 1;
      const Face recovered = faceOf(revived.client, "live");
      EXPECT_TRUE(recovered == references[committed])
          << "kill point at byte " << len << " (" << committed
          << " committed appends): recovered analyze diverges";
    }
  }
  std::filesystem::remove_all(dir);
}

// ---- reorder window + recovery ---------------------------------------------

TEST(ServerRecovery, ReorderedStreamRecoversIdenticalToOrderedDelivery) {
  const std::string dir = scratchDir("recovery_reorder");
  const trace::Trace tr = outlierTrace();
  const std::vector<trace::Trace> chunks = trace::splitByTime(tr, 6);
  // Scrambled arrival order (a fixed permutation, no randomness).
  const std::size_t order[] = {2, 0, 1, 4, 5, 3};

  {
    ServerOptions options;
    options.journalDir = dir;
    options.reorderWindowBytes = 64 * 1024 * 1024;
    Rig rig(options);
    ASSERT_TRUE(rig.client.open("live", "step threshold 6.0").ok());
    for (const std::size_t i : order) {
      const ClientResponse r = rig.client.append("live", imageOf(chunks[i]));
      ASSERT_TRUE(r.ok()) << r.payload;
    }
  }  // crash with the whole stream still buffered in the window

  ServerOptions options;
  options.journalDir = dir;
  options.recover = true;
  options.reorderWindowBytes = 64 * 1024 * 1024;
  Rig revived(options);
  // Reads flush the window in time order: the recovered face equals the
  // ordered, unjournaled, uninterrupted delivery.
  EXPECT_TRUE(faceOf(revived.client, "live") ==
              referenceFace(chunks, chunks.size()));
  std::filesystem::remove_all(dir);
}

// ---- evict-to-disk rehydration ---------------------------------------------

TEST(ServerRecovery, BudgetEvictedEngineTraceRehydratesFromItsFile) {
  const std::string dir = scratchDir("recovery_rehydrate_file");
  const trace::Trace tr = outlierTrace();
  const std::string path = "server_recovery_rehydrate.pvt";
  trace::saveBinaryFile(tr, path);

  ServerOptions options;
  options.journalDir = dir;  // a journaled daemon spills instead of dropping
  options.maxResidentBytes = 1;  // nothing fits: every new load evicts
  Rig rig(options);
  ASSERT_TRUE(rig.client.load("a", path).ok());
  ASSERT_TRUE(rig.client.load("b", path).ok());
  // "a" was evicted — but with rehydration on it is cold, not gone.
  const ClientResponse a = rig.client.analyze("a");
  EXPECT_EQ(a.type, FrameType::Data) << a.payload;
  const ClientResponse b = rig.client.analyze("b");
  EXPECT_EQ(b.type, FrameType::Data);
  EXPECT_EQ(a.payload, b.payload);  // same file, same report
  // Under the 1-byte budget the two names ping-pong: analyzing "a"
  // faulted it in (spilling "b"), analyzing "b" faulted that back.
  const ClientResponse stats = rig.client.stats();
  ASSERT_EQ(stats.type, FrameType::Data);
  EXPECT_NE(stats.payload.find("rehydrations: 2"), std::string::npos)
      << stats.payload;
  EXPECT_NE(stats.payload.find("spilled: 1"), std::string::npos)
      << stats.payload;
  std::remove(path.c_str());
  std::filesystem::remove_all(dir);
}

TEST(ServerRecovery, BudgetEvictedLiveTraceRehydratesFromItsJournal) {
  const std::string dir = scratchDir("recovery_rehydrate_live");
  const trace::Trace tr = outlierTrace();
  const std::string path = "server_recovery_rehydrate_live.pvt";
  trace::saveBinaryFile(tr, path);

  ServerOptions options;
  options.journalDir = dir;
  options.maxResidentBytes = 1;
  Rig rig(options);
  ASSERT_TRUE(rig.client.open("live", "step threshold 6.0").ok());
  Face before;
  for (const trace::Trace& chunk : trace::splitByTime(tr, 3)) {
    ASSERT_TRUE(rig.client.append("live", imageOf(chunk)).ok());
  }
  before = faceOf(rig.client, "live");
  ASSERT_EQ(before.analyzeType, FrameType::Data);

  // Loading another trace under the 1-byte budget evicts "live" ...
  ASSERT_TRUE(rig.client.load("disk", path).ok());
  // ... which faults back in from its journal on the next reference.
  EXPECT_TRUE(faceOf(rig.client, "live") == before);

  // Explicit eviction is a real drop: no rehydration afterwards.
  ASSERT_TRUE(rig.client.load("disk2", path).ok());  // spill "live" again
  EXPECT_EQ(rig.client.evict("live").type, FrameType::Ok);
  EXPECT_EQ(rig.client.analyze("live").type, FrameType::Evicted);
  std::remove(path.c_str());
  std::filesystem::remove_all(dir);
}

TEST(ServerRecovery, RehydrationOffKeepsTheTombstoneContract) {
  const trace::Trace tr = outlierTrace();
  const std::string path = "server_recovery_tombstone.pvt";
  trace::saveBinaryFile(tr, path);

  ServerOptions options;
  options.maxResidentBytes = 1;  // rehydrate defaults to false
  Rig rig(options);
  ASSERT_TRUE(rig.client.load("a", path).ok());
  ASSERT_TRUE(rig.client.load("b", path).ok());
  EXPECT_EQ(rig.client.analyze("a").type, FrameType::Evicted);
  std::remove(path.c_str());
}

// ---- graceful drain --------------------------------------------------------

TEST(ServerRecovery, DrainFlushesJournalsAndAnswersInFlightRequests) {
  const std::string dir = scratchDir("recovery_drain");
  const trace::Trace tr = outlierTrace();

  ServerOptions options;
  options.journalDir = dir;
  Server server(options);
  Client client = Rig::connect(server);
  ASSERT_TRUE(client.open("live", "step threshold 6.0").ok());
  ASSERT_TRUE(client.append("live", imageOf(tr)).ok());

  std::thread drainer([&server] { server.drain(); });
  // The drained server no longer reads new requests; the already-living
  // session winds down, and the journal holds everything acknowledged.
  drainer.join();

  ServerOptions recovered;
  recovered.journalDir = dir;
  recovered.recover = true;
  Rig revived(recovered);
  const Face face = faceOf(revived.client, "live");
  EXPECT_EQ(face.analyzeType, FrameType::Data);

  ServerOptions reference;
  Rig ref(reference);
  ASSERT_TRUE(ref.client.open("live", "step threshold 6.0").ok());
  ASSERT_TRUE(ref.client.append("live", imageOf(tr)).ok());
  EXPECT_TRUE(face == faceOf(ref.client, "live"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace perfvar::server
