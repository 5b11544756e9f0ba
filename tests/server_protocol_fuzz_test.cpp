/// Robustness matrix over the analysis-server protocol: malformed and
/// truncated frames, oversized declared lengths, junk handshakes, unknown
/// frame types, and FaultInjector-corrupted append chunks must all come
/// back as structured Error frames (or a clean connection drop) — the
/// server must never crash, and must keep serving new connections after
/// every abuse. Runs under the ASan job like every test and under the
/// TSan job via the `robustness` label.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "server/client.hpp"
#include "server/server.hpp"
#include "trace/binary_io.hpp"
#include "trace/builder.hpp"
#include "trace/fault_injection.hpp"
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

}  // namespace
}  // namespace perfvar::server
