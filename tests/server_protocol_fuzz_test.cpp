/// Robustness matrix over the analysis-server protocol: malformed and
/// truncated frames, oversized declared lengths, junk handshakes, unknown
/// frame types, and FaultInjector-corrupted append chunks must all come
/// back as structured Error frames (or a clean connection drop) — the
/// server must never crash, and must keep serving new connections after
/// every abuse. Runs under the ASan job like every test and under the
/// TSan job via the `robustness` label.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "analysis/pipeline.hpp"
#include "lint/lint.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "support/fault_injection.hpp"
#include "trace/binary_io.hpp"
#include "trace/builder.hpp"
#include "trace/filter.hpp"
#include "util/framing.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

namespace perfvar::server {
namespace {

namespace ft = perfvar::testing;

/// One in-process server plus a helper to mint raw (pre-handshake)
/// connections against it.
struct Harness {
  Server server;

  explicit Harness(ServerOptions options = {}) : server(options) {}

  util::FileDescriptor rawConnection() {
    auto [serverEnd, clientEnd] = util::socketPair();
    server.serveConnection(std::move(serverEnd));
    return std::move(clientEnd);
  }

  Client client() { return Client{rawConnection()}; }
};

/// A small multi-rank trace with nested segments and metrics.
trace::Trace syntheticTrace(std::size_t ranks = 4,
                            std::size_t iterations = 24) {
  trace::TraceBuilder b(ranks);
  const auto fStep = b.defineFunction("step");
  const auto fSync = b.defineFunction("MPI_Barrier", "MPI",
                                      trace::Paradigm::MPI);
  const auto m = b.defineMetric("flops", "count");
  for (trace::ProcessId p = 0; p < ranks; ++p) {
    trace::Timestamp t = 10 * (p + 1);
    for (std::size_t i = 0; i < iterations; ++i) {
      b.enter(p, t, fStep);
      b.metric(p, t + 1, m, static_cast<double>(i));
      b.enter(p, t + 2, fSync);
      b.leave(p, t + 5 + (p + i) % 3, fSync);
      b.leave(p, t + 40 + (p * 7 + i * 3) % 11, fStep);
      t += 100;
    }
  }
  return b.finish();
}

std::string imageOf(const trace::Trace& tr, std::uint32_t version) {
  const ft::Image image = ft::encodeImage(tr, version);
  return std::string(reinterpret_cast<const char*>(image.data()),
                     image.size());
}

/// Read one frame, expecting it to be there.
util::Frame mustRead(int fd) {
  util::Frame f;
  EXPECT_TRUE(util::readFrame(fd, f));
  return f;
}

// ---- handshake abuse -------------------------------------------------------

TEST(ServerProtocolFuzz, FirstFrameNotHelloIsRejected) {
  Harness h;
  util::FileDescriptor fd = h.rawConnection();
  util::writeFrame(fd.get(), static_cast<std::uint8_t>(FrameType::Stats), "");
  const util::Frame f = mustRead(fd.get());
  EXPECT_EQ(static_cast<FrameType>(f.type), FrameType::Error);
  EXPECT_EQ(decodeErrorPayload(f.payload).code, ErrorCode::MalformedEvent);
  // The connection is dropped after a failed handshake.
  util::Frame next;
  EXPECT_FALSE(util::readFrame(fd.get(), next));
  // ... but the server keeps serving fresh connections.
  Client ok = h.client();
  EXPECT_TRUE(ok.stats().ok());
}

TEST(ServerProtocolFuzz, BadHelloMagicIsABadMagicError) {
  Harness h;
  util::FileDescriptor fd = h.rawConnection();
  util::writeFrame(fd.get(), static_cast<std::uint8_t>(FrameType::Hello),
                   std::string("XXXX\x01\x00\x00\x00", 8));
  const util::Frame f = mustRead(fd.get());
  EXPECT_EQ(static_cast<FrameType>(f.type), FrameType::Error);
  EXPECT_EQ(decodeErrorPayload(f.payload).code, ErrorCode::BadMagic);
}

TEST(ServerProtocolFuzz, WrongHelloVersionIsAnUnsupportedVersionError) {
  Harness h;
  util::FileDescriptor fd = h.rawConnection();
  std::string hello = encodeHello();
  hello[4] = 99;  // absurd protocol version
  util::writeFrame(fd.get(), static_cast<std::uint8_t>(FrameType::Hello),
                   hello);
  const util::Frame f = mustRead(fd.get());
  EXPECT_EQ(static_cast<FrameType>(f.type), FrameType::Error);
  EXPECT_EQ(decodeErrorPayload(f.payload).code,
            ErrorCode::UnsupportedVersion);
}

TEST(ServerProtocolFuzz, TruncatedHelloIsATruncatedInputError) {
  Harness h;
  util::FileDescriptor fd = h.rawConnection();
  util::writeFrame(fd.get(), static_cast<std::uint8_t>(FrameType::Hello),
                   "PVTS\x01");  // version cut short
  const util::Frame f = mustRead(fd.get());
  EXPECT_EQ(static_cast<FrameType>(f.type), FrameType::Error);
  EXPECT_EQ(decodeErrorPayload(f.payload).code, ErrorCode::TruncatedInput);
}

// ---- framing abuse ---------------------------------------------------------

TEST(ServerProtocolFuzz, OversizedDeclaredLengthGetsAnErrorFrame) {
  Harness h;
  util::FileDescriptor fd = h.rawConnection();
  // Header declaring a payload far past kMaxFramePayload; no payload sent.
  const std::uint32_t absurd = 0xFFFFFFFFu;
  unsigned char header[5];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<unsigned char>((absurd >> (8 * i)) & 0xFF);
  }
  header[4] = static_cast<unsigned char>(FrameType::Hello);
  util::writeFull(fd.get(), header, sizeof header);
  const util::Frame f = mustRead(fd.get());
  EXPECT_EQ(static_cast<FrameType>(f.type), FrameType::Error);
  EXPECT_EQ(decodeErrorPayload(f.payload).code, ErrorCode::MalformedEvent);
  Client ok = h.client();
  EXPECT_TRUE(ok.stats().ok());
}

TEST(ServerProtocolFuzz, TruncatedFramesNeverKillTheServer) {
  Harness h;
  // Cut a valid hello frame at every possible byte boundary.
  const std::string wire = util::encodeFrame(
      static_cast<std::uint8_t>(FrameType::Hello), encodeHello());
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    util::FileDescriptor fd = h.rawConnection();
    if (cut > 0) {
      util::writeFull(fd.get(), wire.data(), cut);
    }
    fd.close();  // mid-frame EOF on the server side
  }
  Client ok = h.client();
  EXPECT_TRUE(ok.stats().ok());
}

TEST(ServerProtocolFuzz, RandomJunkStreamsNeverKillTheServer) {
  Harness h;
  Rng rng(2026);
  for (int round = 0; round < 32; ++round) {
    util::FileDescriptor fd = h.rawConnection();
    std::string junk(static_cast<std::size_t>(rng.uniformInt(1, 64)), '\0');
    for (char& c : junk) {
      c = static_cast<char>(rng.uniformInt(0, 255));
    }
    try {
      util::writeFull(fd.get(), junk.data(), junk.size());
    } catch (const Error&) {
      // The server may already have dropped the connection (EPIPE) —
      // that is a valid reaction to junk, not a failure.
    }
    fd.close();
  }
  Client ok = h.client();
  EXPECT_TRUE(ok.stats().ok());
}

TEST(ServerProtocolFuzz, UnknownFrameTypeAfterHandshakeKeepsSessionAlive) {
  Harness h;
  util::FileDescriptor fd = h.rawConnection();
  util::writeFrame(fd.get(), static_cast<std::uint8_t>(FrameType::Hello),
                   encodeHello());
  EXPECT_EQ(static_cast<FrameType>(mustRead(fd.get()).type),
            FrameType::HelloOk);
  util::writeFrame(fd.get(), 42, "whatever");
  util::Frame f = mustRead(fd.get());
  EXPECT_EQ(static_cast<FrameType>(f.type), FrameType::Error);
  EXPECT_EQ(decodeErrorPayload(f.payload).code, ErrorCode::MalformedEvent);
  // Same connection still answers real requests.
  util::writeFrame(fd.get(), static_cast<std::uint8_t>(FrameType::Stats), "");
  f = mustRead(fd.get());
  EXPECT_EQ(static_cast<FrameType>(f.type), FrameType::Data);
}

TEST(ServerProtocolFuzz, SecondHelloMidSessionIsAnError) {
  Harness h;
  Client c = h.client();
  const ClientResponse r = c.request(FrameType::Hello, encodeHello());
  EXPECT_EQ(r.type, FrameType::Error);
  EXPECT_EQ(r.error().code, ErrorCode::MalformedEvent);
  EXPECT_TRUE(c.stats().ok());
}

// ---- request-payload abuse -------------------------------------------------

TEST(ServerProtocolFuzz, MalformedTextRequestsAreStructuredErrors) {
  Harness h;
  Client c = h.client();
  const std::vector<std::pair<FrameType, std::string>> bad = {
      {FrameType::Load, ""},                        // missing tokens
      {FrameType::Load, "onlyname"},                // missing path
      {FrameType::Open, "live"},                    // missing function
      {FrameType::Open, "live step threshold"},     // option without value
      {FrameType::Open, "live step threshold x"},   // non-numeric value
      {FrameType::Open, "live step threshold nan"}, // non-finite value
      {FrameType::Open, "live step threshold inf"}, // non-finite value
      {FrameType::Open, "live step warmup -1"},     // negative count
      {FrameType::Open, "live step frobnicate 3"},  // unknown option
      {FrameType::Analyze, ""},                     // missing name
      {FrameType::Export, "name"},                  // missing format
      {FrameType::Evict, ""},                       // missing name
      {FrameType::Evict, "a b"},                    // too many tokens
      {FrameType::Lint, ""},                        // missing name
      {FrameType::Stats, "a b"},                    // too many tokens
      {FrameType::Subscribe, ""},                   // missing name
  };
  for (const auto& [type, payload] : bad) {
    const ClientResponse r = c.request(type, payload);
    EXPECT_EQ(r.type, FrameType::Error)
        << frameTypeName(type) << " '" << payload << "'";
    EXPECT_EQ(r.error().code, ErrorCode::MalformedEvent)
        << frameTypeName(type) << " '" << payload << "'";
  }
  EXPECT_TRUE(c.stats().ok());
}

TEST(ServerProtocolFuzz, UnknownNamesAndWrongKindsAreErrors) {
  Harness h;
  Client c = h.client();
  EXPECT_EQ(c.analyze("ghost").type, FrameType::Error);
  EXPECT_EQ(c.lint("ghost").type, FrameType::Error);
  EXPECT_EQ(c.evict("ghost").type, FrameType::Error);
  EXPECT_EQ(c.subscribe("ghost").type, FrameType::Error);
  EXPECT_EQ(c.append("ghost", "junk").type, FrameType::Error);
  EXPECT_EQ(c.load("t", "definitely_missing.pvt").type, FrameType::Error);
  // A live name cannot be re-opened as an engine, and engine-only verbs
  // reject live traces gracefully.
  EXPECT_TRUE(c.open("live", "step").ok());
  EXPECT_EQ(c.load("live", "whatever.pvt").type, FrameType::Error);
  EXPECT_EQ(c.subscribe("live").type, FrameType::Ok);
}

TEST(ServerProtocolFuzz, MalformedAppendPayloadsAreStructuredErrors) {
  Harness h;
  Client c = h.client();
  ASSERT_TRUE(c.open("live", "step").ok());
  // Too short for the name-length prefix.
  ClientResponse r = c.request(FrameType::Append, "ab");
  EXPECT_EQ(r.type, FrameType::Error);
  EXPECT_EQ(r.error().code, ErrorCode::MalformedEvent);
  // Declared name length overruns the payload.
  std::string overrun = encodeAppendPayload("live", "");
  overrun[0] = 100;  // name length 100 in a payload of 8 bytes
  r = c.request(FrameType::Append, overrun);
  EXPECT_EQ(r.type, FrameType::Error);
  EXPECT_EQ(r.error().code, ErrorCode::MalformedEvent);
  // Image that is no PVTF file at all.
  r = c.append("live", "this is not a trace");
  EXPECT_EQ(r.type, FrameType::Error);
  EXPECT_EQ(r.error().code, ErrorCode::BadMagic);
  // v1 images have no independently decodable blocks to append.
  const trace::Trace tr = syntheticTrace();
  r = c.append("live", imageOf(tr, trace::kBinaryFormatV1));
  EXPECT_EQ(r.type, FrameType::Error);
  EXPECT_EQ(r.error().code, ErrorCode::UnsupportedVersion);
  // After all that abuse, a clean chunk still streams in fine.
  EXPECT_TRUE(c.append("live", imageOf(tr, trace::kBinaryFormatV2)).ok());
  EXPECT_TRUE(c.analyze("live").ok());
}

TEST(ServerProtocolFuzz, CorruptedAppendChunksAreRejectedAtomically) {
  const trace::Trace tr = syntheticTrace();
  const ft::Image clean = ft::encodeImage(tr, trace::kBinaryFormatV2);
  ft::FaultInjector injector(7);

  std::vector<std::pair<std::string, ft::Image>> faults;
  for (std::size_t cut : {std::size_t{1}, std::size_t{5}, clean.size() / 3,
                          clean.size() - 1}) {
    faults.emplace_back("truncateAt(" + std::to_string(cut) + ")",
                        ft::FaultInjector::truncateAt(clean, cut));
  }
  faults.emplace_back("tornTail", ft::FaultInjector::tornTail(clean, 64));
  faults.emplace_back("zeroTableEntry",
                      ft::FaultInjector::zeroTableEntry(clean, 1));
  faults.emplace_back("oversizeCount",
                      ft::FaultInjector::oversizeCount(clean, 2));
  for (int i = 0; i < 8; ++i) {
    faults.emplace_back("bitFlip#" + std::to_string(i),
                        injector.bitFlip(clean, 48, clean.size()));
  }

  Harness h;
  Client c = h.client();
  for (const auto& [label, image] : faults) {
    ASSERT_TRUE(c.open("live_" + label, "step").ok()) << label;
    const ClientResponse r = c.append(
        "live_" + label,
        std::string(reinterpret_cast<const char*>(image.data()),
                    image.size()));
    EXPECT_EQ(r.type, FrameType::Error) << label;
    EXPECT_NE(r.error().code, ErrorCode::None) << label;
    // The failed append left the live trace untouched: the pristine
    // chunk must still be acceptable as the FIRST chunk.
    const ClientResponse ok = c.append(
        "live_" + label,
        std::string(reinterpret_cast<const char*>(clean.data()),
                    clean.size()));
    EXPECT_TRUE(ok.ok()) << label << ": " << ok.payload;
  }
  EXPECT_TRUE(c.stats().ok());
}

TEST(ServerProtocolFuzz, ChunkWithoutSegmentFunctionRollsBackTheTrace) {
  Harness h;
  Client c = h.client();
  ASSERT_TRUE(c.open("live", "no_such_function").ok());
  const trace::Trace tr = syntheticTrace();
  const std::string image = imageOf(tr, trace::kBinaryFormatV2);
  const ClientResponse r = c.append("live", image);
  EXPECT_EQ(r.type, FrameType::Error);
  EXPECT_EQ(r.error().code, ErrorCode::MalformedEvent);
  // The name is still usable: evict it and reopen with a function the
  // chunks actually define.
  EXPECT_EQ(c.evict("live").type, FrameType::Ok);
  ASSERT_TRUE(c.open("live", "step").ok());
  EXPECT_TRUE(c.append("live", image).ok());
}

// ---- chunks the streaming analyzer rejects ---------------------------------

/// The queryable face of a live trace after a stream of appends: every
/// alert line (appends and the read that flushes the window), the report
/// and the per-trace stats.
struct LiveFace {
  std::vector<std::string> alerts;
  std::string analyze;
  std::string stats;

  bool operator==(const LiveFace& other) const {
    return alerts == other.alerts && analyze == other.analyze &&
           stats == other.stats;
  }
};

LiveFace readFace(Client& c, std::vector<std::string> alerts) {
  LiveFace face;
  const ClientResponse report = c.analyze("live");
  EXPECT_EQ(report.type, FrameType::Data) << report.payload;
  face.alerts = std::move(alerts);
  face.alerts.insert(face.alerts.end(), report.alerts.begin(),
                     report.alerts.end());
  face.analyze = report.payload;
  face.stats = c.stats("live").payload;
  return face;
}

/// A chunk with syntheticTrace()'s definitions whose only events are
/// `events` on rank 1.
std::string rankOneChunk(const std::vector<trace::Event>& events) {
  trace::Trace chunk = syntheticTrace();
  for (trace::ProcessTrace& process : chunk.processes) {
    process.events.clear();
  }
  chunk.processes[1].events = events;
  return imageOf(chunk, trace::kBinaryFormatV2);
}

TEST(ServerProtocolFuzz, ChunksTheAnalyzerRejectsLeaveTheLiveTraceUntouched) {
  const trace::Trace tr = syntheticTrace();
  const std::vector<trace::Trace> chunks = trace::splitByTime(tr, 6);
  const trace::Timestamp t = chunks[2].endTime();
  const auto fStep = *tr.functions.find("step");
  const auto fSync = *tr.functions.find("MPI_Barrier");
  // Checksum-valid chunks with the live definitions, appended after
  // chunks[0..2]: each must be refused without a trace of it remaining.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"undefined function ref 99",
       rankOneChunk({trace::Event::enter(t, 99), trace::Event::leave(t, 99)})},
      {"unbalanced leave of function ref " + std::to_string(fSync),
       rankOneChunk(
           {trace::Event::enter(t, fStep), trace::Event::leave(t, fSync)})},
  };
  // Only a commit knows the open frames a leading leave would close.
  const std::string strayLeave = rankOneChunk({trace::Event::leave(t, fSync)});

  for (const std::size_t window : {std::size_t{0}, std::size_t{1} << 26}) {
    const std::string tag = "server_fuzz_reject_" + std::to_string(window) +
                            "_" + std::to_string(getpid());
    const auto run = [&](const std::string& dir, bool withBadChunks,
                         bool recover) {
      ServerOptions options;
      options.journalDir = dir;
      options.reorderWindowBytes = window;
      options.recover = recover;
      Harness h(options);
      Client c = h.client();
      std::vector<std::string> alerts;
      if (!recover) {
        EXPECT_TRUE(c.open("live", "step threshold 1.0 warmup 4").ok());
        EXPECT_TRUE(c.subscribe("live").ok());
        for (std::size_t i = 0; i < chunks.size(); ++i) {
          if (i == 3 && withBadChunks) {
            for (const auto& [what, image] : bad) {
              const ClientResponse r = c.append("live", image);
              EXPECT_EQ(r.type, FrameType::Error) << what;
              EXPECT_EQ(r.error().code, ErrorCode::MalformedEvent) << what;
              EXPECT_NE(r.error().message.find(what), std::string::npos)
                  << r.error().message;
            }
            if (window == 0) {
              const ClientResponse r = c.append("live", strayLeave);
              EXPECT_EQ(r.type, FrameType::Error);
              EXPECT_EQ(r.error().code, ErrorCode::MalformedEvent);
            }
          }
          const ClientResponse r =
              c.append("live", imageOf(chunks[i], trace::kBinaryFormatV2));
          EXPECT_TRUE(r.ok()) << r.payload;
          alerts.insert(alerts.end(), r.alerts.begin(), r.alerts.end());
        }
      }
      return readFace(c, std::move(alerts));
    };

    const LiveFace reference = run(tag + "_ref", false, false);
    EXPECT_FALSE(reference.alerts.empty());
    EXPECT_TRUE(run(tag + "_bad", true, false) == reference)
        << "window " << window;
    // Neither journal holds a rejected chunk: both recover to one state.
    const LiveFace recovered = run(tag + "_ref", false, true);
    EXPECT_TRUE(run(tag + "_bad", false, true) == recovered)
        << "window " << window;
    EXPECT_EQ(recovered.analyze, reference.analyze);
    std::filesystem::remove_all(tag + "_ref");
    std::filesystem::remove_all(tag + "_bad");
  }
}

// ---- hostile but loadable traces -------------------------------------------

TEST(ServerProtocolFuzz, ValidFileWithDanglingRefsNeverKillsTheServer) {
  // Checksums hold, but function 5000000 is never defined: the file loads,
  // and every analysis of it must answer an error frame.
  trace::Trace bad;
  bad.functions.intern("main", "APP");
  for (const char* name : {"r0", "r1"}) {
    bad.processes.push_back(
        {name,
         {trace::Event::enter(1, 0), trace::Event::enter(2, 5000000),
          trace::Event::leave(3, 5000000), trace::Event::leave(4, 0)}});
  }
  const std::string badPath = "server_fuzz_dangling_refs.pvt";
  trace::BinaryWriteOptions v1;
  v1.version = trace::kBinaryFormatV1;
  trace::saveBinaryFile(bad, badPath, v1);
  const trace::Trace ok = syntheticTrace();
  const std::string okPath = "server_fuzz_dangling_refs_ok.pvt";
  trace::saveBinaryFile(ok, okPath);

  Harness h;
  Client c = h.client();
  ASSERT_TRUE(c.load("bad", badPath).ok());
  for (const ClientResponse& r :
       {c.analyze("bad"), c.exportReport("bad json")}) {
    EXPECT_EQ(r.type, FrameType::Error) << r.payload;
    EXPECT_EQ(r.error().code, ErrorCode::MalformedEvent) << r.payload;
  }
  const ClientResponse linted = c.lint("bad");
  ASSERT_EQ(linted.type, FrameType::Data) << linted.payload;
  EXPECT_EQ(linted.payload,
            lint::exportLintReportString(lint::lintTrace(bad),
                                         analysis::ExportFormat::Text));

  // The same server still answers a clean trace's normal report.
  ASSERT_TRUE(c.load("ok", okPath).ok());
  const ClientResponse report = c.analyze("ok");
  ASSERT_EQ(report.type, FrameType::Data) << report.payload;
  EXPECT_EQ(report.payload,
            analysis::formatAnalysis(ok, analysis::analyzeTrace(ok)));
  std::remove(badPath.c_str());
  std::remove(okPath.c_str());
}

}  // namespace
}  // namespace perfvar::server
