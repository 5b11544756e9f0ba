/// Concurrency stress over the analysis server: N client threads issue
/// interleaved load/analyze/append/evict sessions against one server,
/// and every per-client transcript must be byte-identical to the one the
/// same script produces against a fresh server with no other clients.
/// Any torn frame, shared-cache race, or cross-session bleed shows up as
/// a transcript diff (or as a TSan report — this test carries the
/// `parallel` label and runs under the TSan CI job).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/client.hpp"
#include "server/server.hpp"
#include "trace/binary_io.hpp"
#include "trace/builder.hpp"
#include "trace/filter.hpp"
#include "util/socket.hpp"

namespace perfvar::server {
namespace {

/// Shared fixture trace: 4 ranks, 60 iterations, one slow outlier.
trace::Trace fixtureTrace() {
  trace::TraceBuilder b(4);
  const auto fStep = b.defineFunction("step");
  const auto fSync = b.defineFunction("MPI_Barrier", "MPI",
                                      trace::Paradigm::MPI);
  for (std::size_t i = 0; i < 60; ++i) {
    for (trace::ProcessId p = 0; p < 4; ++p) {
      const auto t0 = static_cast<trace::Timestamp>(i) * 1000 + p;
      const trace::Timestamp w =
          (p == 2 && i == 40) ? 800 : 90 + (p * 7 + i * 3) % 11;
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

const std::string& fixturePath() {
  static const std::string path = [] {
    const std::string p = "server_concurrency_test.pvt";
    trace::saveBinaryFile(fixtureTrace(), p);
    return p;
  }();
  return path;
}

/// One transcript line per final frame; alerts are folded in where they
/// arrive so their count and order are part of the comparison.
void record(std::vector<std::string>& transcript, const char* step,
            const ClientResponse& r) {
  for (const std::string& alert : r.alerts) {
    transcript.push_back(std::string(step) + " alert: " + alert);
  }
  transcript.push_back(std::string(step) + " " +
                       frameTypeName(r.type) + ": " + r.payload);
}

/// The per-client script. Shared state is exercised read-only (everyone
/// loads/analyzes the same engine entry); mutation happens under private
/// names so the expected responses don't depend on interleaving.
std::vector<std::string> runScript(Client& client, std::size_t clientIndex) {
  const std::string live = "live_" + std::to_string(clientIndex);
  std::vector<std::string> t;
  record(t, "load", client.load("shared", fixturePath()));
  record(t, "analyze-shared", client.analyze("shared"));
  record(t, "export-shared", client.exportReport("shared json"));
  record(t, "lint-shared", client.lint("shared"));
  // No `stats shared` here: the shared engine's cache-hit counters count
  // every client's queries, so they are interleaving-dependent by design.
  record(t, "open", client.open(live, "step threshold 6.0 warmup 8"));
  record(t, "subscribe", client.subscribe(live));
  for (const trace::Trace& chunk : trace::splitByTime(fixtureTrace(), 3)) {
    record(t, "append", client.append(live, imageOf(chunk)));
  }
  record(t, "analyze-live", client.analyze(live));
  record(t, "stats-live", client.stats(live));
  record(t, "evict", client.evict(live));
  record(t, "analyze-evicted", client.analyze(live));
  return t;
}

Client connectTo(Server& server) {
  auto [serverEnd, clientEnd] = util::socketPair();
  server.serveConnection(std::move(serverEnd));
  return Client{std::move(clientEnd)};
}

/// Serial reference: each client's script against its own quiet server.
std::vector<std::string> serialTranscript(std::size_t clientIndex) {
  Server server;
  Client client = connectTo(server);
  return runScript(client, clientIndex);
}

void expectConcurrentMatchesSerial(std::size_t threads) {
  Server server;
  std::vector<std::vector<std::string>> got(threads);
  {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers.emplace_back([&server, &got, i] {
        Client client = connectTo(server);
        got[i] = runScript(client, i);
      });
    }
    for (std::thread& w : workers) {
      w.join();
    }
  }
  for (std::size_t i = 0; i < threads; ++i) {
    const std::vector<std::string> want = serialTranscript(i);
    ASSERT_EQ(got[i].size(), want.size()) << "client " << i;
    for (std::size_t line = 0; line < want.size(); ++line) {
      EXPECT_EQ(got[i][line], want[line])
          << "client " << i << " transcript line " << line;
    }
  }
}

TEST(ServerConcurrency, OneClientMatchesSerial) {
  expectConcurrentMatchesSerial(1);
}

TEST(ServerConcurrency, TwoClientsMatchSerial) {
  expectConcurrentMatchesSerial(2);
}

TEST(ServerConcurrency, EightClientsMatchSerial) {
  expectConcurrentMatchesSerial(8);
}

/// Hammer one shared live entry from many threads at once. The append
/// path enforces monotone time order, so whichever chunks lose the race
/// and arrive behind the stream head are rejected with a structured
/// Error — the invariants are that every append resolves to Ok or that
/// rejection (never a torn frame, never a dead server), the append
/// counter matches the accepted count exactly, and the entry stays
/// fully serviceable afterwards.
TEST(ServerConcurrency, SharedLiveEntrySurvivesConcurrentAppends) {
  const trace::Trace tr = fixtureTrace();
  const auto chunks = trace::splitByTime(tr, 8);
  Server server;
  Client setup = connectTo(server);
  ASSERT_TRUE(setup.open("shared_live", "step threshold 6.0").ok());

  std::atomic<std::size_t> accepted{0};
  std::atomic<std::size_t> rejected{0};
  std::vector<std::thread> workers;
  workers.reserve(chunks.size());
  for (const trace::Trace& chunk : chunks) {
    workers.emplace_back([&server, &accepted, &rejected,
                          image = imageOf(chunk)] {
      Client client = connectTo(server);
      const ClientResponse r = client.append("shared_live", image);
      if (r.ok()) {
        ++accepted;
      } else {
        ++rejected;
        EXPECT_EQ(r.type, FrameType::Error);
        EXPECT_NE(r.payload.find("precede the live stream"),
                  std::string::npos)
            << r.payload;
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }

  EXPECT_EQ(accepted + rejected, chunks.size());
  EXPECT_GE(accepted.load(), 1u);  // the race has at least one winner
  const ClientResponse stats = setup.stats("shared_live");
  ASSERT_EQ(stats.type, FrameType::Data);
  EXPECT_NE(stats.payload.find("appends: " + std::to_string(accepted)),
            std::string::npos)
      << stats.payload;
  // Rejections were atomic: the surviving stream is analyzable and the
  // entry can still be evicted, i.e. nothing was left half-updated.
  EXPECT_EQ(setup.analyze("shared_live").type, FrameType::Data);
  EXPECT_EQ(setup.evict("shared_live").type, FrameType::Ok);
}

/// `stats <live>` reports the bytes charged to the entry while another
/// session's appends re-charge them. Both sides must hold the registry
/// lock: under TSan, a read under the entry lock alone is a data race.
TEST(ServerConcurrency, StatsRacingAppendsReadTheChargedBytes) {
  Server server;
  Client setup = connectTo(server);
  ASSERT_TRUE(setup.open("live", "step threshold 6.0").ok());
  const auto chunks = trace::splitByTime(fixtureTrace(), 200);
  std::thread appender([&server, &chunks] {
    Client client = connectTo(server);
    for (const trace::Trace& chunk : chunks) {
      const ClientResponse r = client.append("live", imageOf(chunk));
      EXPECT_TRUE(r.ok()) << r.payload;
    }
  });
  Client reader = connectTo(server);
  for (int i = 0; i < 3000; ++i) {
    const ClientResponse r = reader.stats("live");
    EXPECT_EQ(r.type, FrameType::Data) << r.payload;
    if (r.type != FrameType::Data) {
      break;
    }
  }
  appender.join();

  // Once quiet, the entry's charge is the whole server's resident total.
  const ClientResponse entry = setup.stats("live");
  ASSERT_EQ(entry.type, FrameType::Data);
  EXPECT_NE(entry.payload.find("appends: 200"), std::string::npos)
      << entry.payload;
  const ServiceStats total = server.service().stats();
  EXPECT_NE(entry.payload.find(
                "bytes: " + std::to_string(total.residentBytes) + "\n"),
            std::string::npos)
      << entry.payload;
}

TEST(ServerConcurrency, ShutdownWithBusyClientsNeverHangs) {
  Server server;
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < 4; ++i) {
    workers.emplace_back([&server, i] {
      try {
        Client client = connectTo(server);
        for (int round = 0; round < 50; ++round) {
          const ClientResponse r = client.load(
              "loop_" + std::to_string(i), fixturePath());
          if (r.type != FrameType::Ok) {
            break;  // server is gone; that's the point
          }
        }
      } catch (const std::exception&) {
        // Connection torn down mid-request is the expected outcome for
        // whoever loses the race with stop().
      }
    });
  }
  server.stop();
  for (std::thread& w : workers) {
    w.join();
  }
  SUCCEED();
}

}  // namespace
}  // namespace perfvar::server
