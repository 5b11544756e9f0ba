/// Differential tests of the block-based PVTF v2 codec: serial and
/// threaded encode/decode must reproduce the original trace bit-exactly,
/// v1 files written by the legacy writer must keep loading, v2 files
/// must not be larger than their v1 counterparts, and a lazy view's shard
/// cache must hand every thread the right events.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <latch>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/paper_examples.hpp"
#include "support/binary_v1.hpp"
#include "trace/binary_format.hpp"
#include "trace/binary_io.hpp"
#include "trace/builder.hpp"
#include "trace/view.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfvar::trace {
namespace {

void expectTracesEqual(const Trace& a, const Trace& b) {
  EXPECT_EQ(a.resolution, b.resolution);
  ASSERT_EQ(a.functions.size(), b.functions.size());
  for (std::size_t i = 0; i < a.functions.size(); ++i) {
    const auto id = static_cast<FunctionId>(i);
    EXPECT_EQ(a.functions.at(id).name, b.functions.at(id).name);
    EXPECT_EQ(a.functions.at(id).group, b.functions.at(id).group);
    EXPECT_EQ(a.functions.at(id).paradigm, b.functions.at(id).paradigm);
  }
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    const auto id = static_cast<MetricId>(i);
    EXPECT_EQ(a.metrics.at(id).name, b.metrics.at(id).name);
    EXPECT_EQ(a.metrics.at(id).unit, b.metrics.at(id).unit);
    EXPECT_EQ(a.metrics.at(id).mode, b.metrics.at(id).mode);
  }
  ASSERT_EQ(a.processes.size(), b.processes.size());
  for (std::size_t p = 0; p < a.processes.size(); ++p) {
    EXPECT_EQ(a.processes[p].name, b.processes[p].name);
    ASSERT_EQ(a.processes[p].events.size(), b.processes[p].events.size());
    for (std::size_t i = 0; i < a.processes[p].events.size(); ++i) {
      EXPECT_EQ(a.processes[p].events[i], b.processes[p].events[i]);
    }
  }
}

/// A mid-sized multi-rank trace exercising every event kind, large
/// deltas, escape-coded function ids (>= 31) and neighbor messaging.
Trace syntheticTrace(std::size_t ranks, std::size_t iterations) {
  TraceBuilder b(ranks);
  std::vector<FunctionId> fns;
  for (std::size_t i = 0; i < 40; ++i) {
    fns.push_back(b.defineFunction(
        "fn" + std::to_string(i), i % 3 ? "APP" : "MPI",
        i % 3 ? Paradigm::Compute : Paradigm::MPI));
  }
  const auto m = b.defineMetric("cycles", "count");
  for (ProcessId p = 0; p < ranks; ++p) {
    Timestamp t = 17 * (p + 1);
    for (std::size_t it = 0; it < iterations; ++it) {
      const auto f = fns[(p + it) % fns.size()];
      b.enter(p, t, f);
      t += 3 + ((p * 31 + it * 7) % 5000);  // exercises multi-byte deltas
      b.metric(p, t, m, static_cast<double>(p) * 1e6 + it);
      if (ranks > 1) {
        const auto peer = static_cast<ProcessId>((p + 1) % ranks);
        b.mpiSend(p, t, peer, static_cast<std::uint32_t>(it), 64 * (it + 1));
        const auto src = static_cast<ProcessId>((p + ranks - 1) % ranks);
        b.mpiRecv(p, t + 1, src, static_cast<std::uint32_t>(it), 64);
      }
      t += 2;
      b.leave(p, t, f);
      ++t;
    }
  }
  return b.finish();
}

std::vector<Trace> goldenTraces() {
  std::vector<Trace> traces;
  traces.push_back(apps::buildFigure1Trace());
  traces.push_back(apps::buildFigure2Trace());
  traces.push_back(apps::buildFigure3Trace());
  traces.push_back(syntheticTrace(16, 40));
  return traces;
}

std::string image(const Trace& tr, const BinaryWriteOptions& options = {}) {
  std::ostringstream os;
  writeBinary(tr, os, options);
  return os.str();
}

/// The legacy v1 encoding of `tr` (the library reads v1, never writes it).
std::string v1Image(const Trace& tr) {
  std::ostringstream os;
  perfvar::testing::writeBinaryV1(tr, os);
  return os.str();
}

TEST(BinaryV2, SerialAndThreadedDecodeMatchOriginal) {
  for (const Trace& original : goldenTraces()) {
    const std::string bytes = image(original);
    for (const std::size_t threads : {1ul, 2ul, 8ul}) {
      BinaryReadOptions options;
      options.threads = threads;
      const Trace loaded =
          readBinaryBuffer(bytes.data(), bytes.size(), options);
      expectTracesEqual(original, loaded);
    }
    // Stream path (sniffs the version, slurps, decodes).
    std::istringstream is(bytes);
    expectTracesEqual(original, readBinary(is));
  }
}

TEST(BinaryV2, ThreadedEncodeIsByteIdenticalToSerial) {
  for (const Trace& original : goldenTraces()) {
    const std::string serial = image(original);
    for (const std::size_t threads : {2ul, 8ul}) {
      BinaryWriteOptions options;
      options.threads = threads;
      EXPECT_EQ(serial, image(original, options));
    }
  }
}

TEST(BinaryV2, ExplicitV1WriteStillRoundTrips) {
  for (const Trace& original : goldenTraces()) {
    const std::string bytes = v1Image(original);
    ASSERT_GE(bytes.size(), 8u);
    EXPECT_EQ(bytes[4], 1);  // version field says v1
    expectTracesEqual(original,
                      readBinaryBuffer(bytes.data(), bytes.size()));
    std::istringstream is(bytes);
    expectTracesEqual(original, readBinary(is));
  }
}

/// The exact bytes the v1 writer produced before v2 existed, for a small
/// two-rank trace. Guards both directions of compatibility: the modern
/// reader must accept files from old writers, and the test-support v1
/// encoder must keep emitting those bytes (the v1 fuzz and fault suites
/// feed the reader through it).
const unsigned char kGoldenV1[] = {
    0x50, 0x56, 0x54, 0x46, 0x01, 0x00, 0x00, 0x00, 0x80, 0x94, 0xeb, 0xdc,
    0x03, 0x02, 0x04, 0x6d, 0x61, 0x69, 0x6e, 0x03, 0x41, 0x50, 0x50, 0x00,
    0x0d, 0x4d, 0x50, 0x49, 0x5f, 0x41, 0x6c, 0x6c, 0x72, 0x65, 0x64, 0x75,
    0x63, 0x65, 0x03, 0x4d, 0x50, 0x49, 0x01, 0x01, 0x0c, 0x50, 0x41, 0x50,
    0x49, 0x5f, 0x54, 0x4f, 0x54, 0x5f, 0x43, 0x59, 0x43, 0x06, 0x63, 0x79,
    0x63, 0x6c, 0x65, 0x73, 0x00, 0x02, 0x06, 0x52, 0x61, 0x6e, 0x6b, 0x20,
    0x30, 0x06, 0x00, 0x0a, 0x00, 0x04, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xf8, 0x3f, 0x00, 0x02, 0x01, 0x01, 0x06, 0x01, 0x01, 0x0a,
    0x00, 0x02, 0x0a, 0x01, 0x03, 0x80, 0x02, 0x06, 0x52, 0x61, 0x6e, 0x6b,
    0x20, 0x31, 0x06, 0x00, 0x0b, 0x00, 0x04, 0x02, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x08, 0x40, 0x00, 0x02, 0x01, 0x01, 0x06, 0x01, 0x01,
    0x0a, 0x00, 0x03, 0x0a, 0x00, 0x03, 0x80, 0x02, 0x30, 0x5a, 0x13, 0xb9,
    0x33, 0x65, 0x5b, 0x78,
};

Trace goldenV1Trace() {
  TraceBuilder b(2);
  const auto f = b.defineFunction("main", "APP");
  const auto g = b.defineFunction("MPI_Allreduce", "MPI", Paradigm::MPI);
  const auto m = b.defineMetric("PAPI_TOT_CYC", "cycles");
  b.setProcessName(1, "Rank 1");
  for (ProcessId p = 0; p < 2; ++p) {
    b.enter(p, 10 + p, f);
    b.metric(p, 12 + p, m, 1.5 * (p + 1));
    b.enter(p, 14 + p, g);
    b.leave(p, 20 + p, g);
    b.leave(p, 30 + p, f);
  }
  b.mpiSend(0, 40, 1, 3, 256);
  b.mpiRecv(1, 41, 0, 3, 256);
  return b.finish();
}

TEST(BinaryV2, GoldenV1FileFromOldWriterStillLoads) {
  const Trace loaded = readBinaryBuffer(kGoldenV1, sizeof(kGoldenV1));
  expectTracesEqual(goldenV1Trace(), loaded);
}

TEST(BinaryV2, V1WriterIsByteStable) {
  const std::string bytes = v1Image(goldenV1Trace());
  ASSERT_EQ(bytes.size(), sizeof(kGoldenV1));
  EXPECT_EQ(0, std::memcmp(bytes.data(), kGoldenV1, sizeof(kGoldenV1)));
}

TEST(BinaryV2, V2FilesAreNoLargerThanV1) {
  // The tag byte folds small function ids into the event header, so v2
  // wins about one byte per event; real traces (the sizes the format is
  // for) come out smaller than v1 despite the block table.
  for (const Trace& original :
       {syntheticTrace(16, 40), syntheticTrace(64, 200)}) {
    EXPECT_LE(image(original).size(), v1Image(original).size());
  }
  // Tiny traces cannot amortize the fixed header; the overhead is bounded
  // by the header/table/hash scaffolding, never proportional to events.
  for (const Trace& original : goldenTraces()) {
    const std::size_t overhead = 48 + 40 * original.processCount();
    EXPECT_LE(image(original).size(), v1Image(original).size() + overhead);
  }
}

TEST(BinaryV2, MappedAndBufferedFileLoadsMatch) {
  const Trace original = syntheticTrace(8, 25);
  const std::string path = ::testing::TempDir() + "/perfvar_v2_mmap.pvt";
  saveBinaryFile(original, path);
  // loadBinaryFile maps the file where it can; that the buffered fallback
  // sees the same bytes is FileView.MappedAndBufferedPathsSeeTheSameBytes.
  expectTracesEqual(original, loadBinaryFile(path));
  std::remove(path.c_str());
}

TEST(BinaryV2, EmptyProcessesAndDefinitionsRoundTrip) {
  // Degenerate shapes: a rank with zero events, and a trace without
  // functions or metrics at all.
  TraceBuilder b(3);
  const auto f = b.defineFunction("only", "APP");
  b.enter(1, 5, f);
  b.leave(1, 9, f);
  const Trace sparse = b.finish();
  const std::string bytes = image(sparse);
  BinaryReadOptions threaded;
  threaded.threads = 4;
  expectTracesEqual(sparse,
                    readBinaryBuffer(bytes.data(), bytes.size(), threaded));

  Trace bare;
  bare.resolution = 1000;
  bare.processes.resize(2);
  bare.processes[0].name = "a";
  bare.processes[1].name = "b";
  const std::string bareBytes = image(bare);
  expectTracesEqual(bare, readBinaryBuffer(bareBytes.data(),
                                           bareBytes.size(), threaded));
}

TEST(BinaryV2, InspectReportsV2Layout) {
  const Trace original = syntheticTrace(4, 10);
  const std::string path = ::testing::TempDir() + "/perfvar_v2_inspect.pvt";
  saveBinaryFile(original, path);
  const BinaryFileInfo info = inspectBinaryFile(path);
  EXPECT_EQ(info.version, kBinaryFormatV2);
  EXPECT_EQ(info.resolution, original.resolution);
  EXPECT_EQ(info.eventCount, original.eventCount());
  {
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    EXPECT_EQ(info.fileSize, static_cast<std::uint64_t>(f.tellg()));
  }
  ASSERT_EQ(info.blocks.size(), original.processCount());
  for (std::size_t p = 0; p < info.blocks.size(); ++p) {
    EXPECT_EQ(info.blocks[p].process, original.processes[p].name);
    EXPECT_EQ(info.blocks[p].events, original.processes[p].events.size());
    EXPECT_GT(info.blocks[p].bytes, 0u);
  }
  std::remove(path.c_str());
}

TEST(BinaryV2, InspectReportsV1Layout) {
  const Trace original = goldenV1Trace();
  const std::string path = ::testing::TempDir() + "/perfvar_v1_inspect.pvt";
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(kGoldenV1), sizeof(kGoldenV1));
  }
  const BinaryFileInfo info = inspectBinaryFile(path);
  EXPECT_EQ(info.version, kBinaryFormatV1);
  EXPECT_EQ(info.fileSize, sizeof(kGoldenV1));
  EXPECT_EQ(info.resolution, original.resolution);
  EXPECT_EQ(info.eventCount, original.eventCount());
  ASSERT_EQ(info.blocks.size(), 2u);
  EXPECT_EQ(info.blocks[0].process, "Rank 0");
  EXPECT_EQ(info.blocks[0].events, original.processes[0].events.size());
  EXPECT_GT(info.blocks[0].bytes, 0u);
  std::remove(path.c_str());
}

// ---- lazy shard cache under concurrent sweeps -----------------------------

/// The resident set TraceViewOptions::shardBudgetBytes documents: the
/// ranks in index order, each kept if its decoded size still fits.
std::vector<bool> residentRanks(const Trace& trace, std::size_t budget) {
  std::vector<bool> resident;
  for (const ProcessTrace& proc : trace.processes) {
    const std::size_t bytes = proc.events.size() * sizeof(Event);
    resident.push_back(bytes <= budget);
    if (resident.back()) {
      budget -= bytes;
    }
  }
  return resident;
}

/// A v2 copy of `trace`, removed at scope exit (the views keep their
/// mapping).
struct SavedTrace {
  SavedTrace(const Trace& trace, const std::string& stem)
      : path(stem + "_" + std::to_string(getpid()) + ".pvt") {
    saveBinaryFile(trace, path);
  }
  ~SavedTrace() { std::remove(path.c_str()); }
  std::string path;
};

/// Decoded bytes of every rank together.
std::size_t decodedBytes(const Trace& trace) {
  return trace.eventCount() * sizeof(Event);
}

TEST(LazyViewResidency, ARankThatDoesNotFitIsSkippedAndALaterSmallerOneFits) {
  // Ranks of 40, 400, 40 and 40 iterations: with room for about three
  // small ranks, rank 1 does not fit, ranks 0 and 2 do, and rank 3 no
  // longer does.
  TraceBuilder b(4);
  const FunctionId f = b.defineFunction("f", "APP", Paradigm::Compute);
  for (ProcessId p = 0; p < 4; ++p) {
    const std::size_t iterations = p == 1 ? 400 : 40;
    for (std::size_t it = 0; it < iterations; ++it) {
      b.enter(p, 10 * it, f);
      b.leave(p, 10 * it + 5, f);
    }
  }
  const Trace trace = b.finish();
  const std::size_t small = trace.processes[0].events.size() * sizeof(Event);
  const SavedTrace file(trace, "binary_v2_residency");
  TraceViewOptions options;
  options.shardBudgetBytes = 2 * small + small / 2;
  const TraceView view = TraceView::openFile(file.path, options);
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (ProcessId p = 0; p < 4; ++p) {
      (void)view.rank(p);
    }
  }
  const TraceViewStats stats = view.stats();
  EXPECT_EQ(stats.shardDecodes, 2u + 3u * 2u);  // ranks 0, 2 once; 1, 3 each
  EXPECT_EQ(stats.shardHits, 2u * 2u);
  EXPECT_EQ(stats.shardEvictions, 3u * 2u);
  EXPECT_EQ(stats.residentBytes, 2 * small);
  EXPECT_EQ(stats.peakResidentBytes, 2 * small);

  // Budget 0 keeps no events: every pin decodes.
  options.shardBudgetBytes = 0;
  const TraceView none = TraceView::openFile(file.path, options);
  for (ProcessId p = 0; p < 4; ++p) {
    (void)none.rank(p);
    (void)none.rank(p);
  }
  EXPECT_EQ(none.stats().shardDecodes, 8u);
  EXPECT_EQ(none.stats().shardHits, 0u);
  EXPECT_EQ(none.stats().peakResidentBytes, 0u);
}

/// Four threads sweep a lazy view's ranks repeatedly, each from its own
/// starting rank, over a shard budget of about half the decoded trace:
/// concurrent misses, same-rank decode races, hits and decodes outside
/// the resident set all interleave. Every pin must read the original
/// events, and the counts must be what the fixed resident set dictates
/// whatever the scheduling.
TEST(LazyViewSweeps, FourThreadsRepeatedlySweepingReadTheOriginalEvents) {
  const Trace original = syntheticTrace(32, 40);
  const SavedTrace file(original, "binary_v2_lazy_sweeps");
  TraceViewOptions options;
  options.shardBudgetBytes = decodedBytes(original) / 2;
  const TraceView view = TraceView::openFile(file.path, options);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSweeps = 6;
  const std::size_t ranks = original.processes.size();
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t sweep = 0; sweep < kSweeps; ++sweep) {
        for (std::size_t i = 0; i < ranks; ++i) {
          const auto p = static_cast<ProcessId>((i + 8 * t) % ranks);
          const RankPin pin = view.rank(p);
          const std::vector<Event>& expected = original.processes[p].events;
          if (!std::equal(pin.events().begin(), pin.events().end(),
                          expected.begin(), expected.end())) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(mismatches.load(), 0u);
  const TraceViewStats stats = view.stats();
  EXPECT_EQ(stats.shardDecodes + stats.shardHits, kThreads * kSweeps * ranks);
  EXPECT_GT(stats.shardEvictions, 0u);
  // Each resident rank is decoded once; each pin of another rank decodes.
  const std::vector<bool> resident =
      residentRanks(original, options.shardBudgetBytes);
  const auto kept = static_cast<std::size_t>(
      std::count(resident.begin(), resident.end(), true));
  const std::size_t passing = kThreads * kSweeps * (ranks - kept);
  EXPECT_EQ(stats.shardDecodes, kept + passing);
  EXPECT_EQ(stats.shardHits, kThreads * kSweeps * kept - kept);
  EXPECT_EQ(stats.shardEvictions, passing);
  EXPECT_LE(stats.peakResidentBytes, options.shardBudgetBytes);
}

/// Eight threads released together pin shuffled ranks of a half-budget
/// view. Every thread starts with the same resident rank and the same
/// rank outside the set, so those pins race. Each pin must read the
/// original events, each resident rank pinned must be decoded exactly
/// once, and each pin of a rank outside the set exactly once more.
TEST(LazyViewSweeps, EightShuffledThreadsDecodeEachResidentRankOnce) {
  const Trace original = syntheticTrace(32, 40);
  const SavedTrace file(original, "binary_v2_lazy_shuffled");
  TraceViewOptions options;
  options.shardBudgetBytes = decodedBytes(original) / 2;
  const TraceView view = TraceView::openFile(file.path, options);
  const std::vector<bool> resident =
      residentRanks(original, options.shardBudgetBytes);
  const auto firstOutside = static_cast<ProcessId>(
      std::find(resident.begin(), resident.end(), false) - resident.begin());
  ASSERT_TRUE(resident[0]);
  ASSERT_LT(firstOutside, original.processes.size());

  // Each thread: rank 0, the first rank outside the set, then its own
  // shuffled half of the ranks.
  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<ProcessId>> orders(kThreads);
  std::vector<bool> pinned(original.processes.size(), false);
  std::size_t passing = 0;
  std::mt19937 rng(20161018);
  for (std::vector<ProcessId>& order : orders) {
    std::vector<ProcessId> all(original.processes.size());
    std::iota(all.begin(), all.end(), ProcessId{0});
    std::shuffle(all.begin(), all.end(), rng);
    order = {0, firstOutside};
    order.insert(order.end(), all.begin(), all.begin() + all.size() / 2);
    for (const ProcessId p : order) {
      pinned[p] = true;
      passing += resident[p] ? 0 : 1;
    }
  }
  std::size_t distinctResident = 0;
  for (std::size_t p = 0; p < pinned.size(); ++p) {
    distinctResident += pinned[p] && resident[p] ? 1 : 0;
  }

  std::latch start(kThreads);
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      start.arrive_and_wait();
      for (const ProcessId p : orders[t]) {
        const RankPin pin = view.rank(p);
        const std::vector<Event>& expected = original.processes[p].events;
        if (!std::equal(pin.events().begin(), pin.events().end(),
                        expected.begin(), expected.end())) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(std::accumulate(mismatches.begin(), mismatches.end(),
                            std::size_t{0}),
            0u);
  const TraceViewStats stats = view.stats();
  EXPECT_EQ(stats.shardDecodes, distinctResident + passing);
  EXPECT_EQ(stats.shardEvictions, passing);
  std::size_t pins = 0;
  for (const std::vector<ProcessId>& order : orders) {
    pins += order.size();
  }
  EXPECT_EQ(stats.shardHits, pins - stats.shardDecodes);
  EXPECT_LE(stats.peakResidentBytes, options.shardBudgetBytes);
}

// ---- varint decoder properties --------------------------------------------
//
// The unrolled fast path (taken whenever 10 bytes are in bounds) must be
// observationally identical to the byte-at-a-time scalar loop: same
// value, same cursor advance, same error classification on adversarial
// encodings.

namespace {

std::vector<unsigned char> encodeLeb128(std::uint64_t v) {
  std::vector<unsigned char> out;
  do {
    unsigned char byte = v & 0x7F;
    v >>= 7;
    if (v != 0) {
      byte |= 0x80;
    }
    out.push_back(byte);
  } while (v != 0);
  return out;
}

/// Decode with both implementations over a buffer padded to `padding`
/// trailing bytes (0 = the <10-byte scalar fallback, >=10 = the unrolled
/// fast path) and require identical value and cursor advance.
std::uint64_t decodeBothWays(const std::vector<unsigned char>& encoded,
                             std::size_t padding) {
  std::vector<unsigned char> buf = encoded;
  buf.insert(buf.end(), padding, 0x55);
  const unsigned char* fast = buf.data();
  const std::uint64_t fastValue =
      detail::decodeVarint(fast, buf.data() + buf.size());
  const unsigned char* scalar = buf.data();
  const std::uint64_t scalarValue =
      detail::decodeVarintScalar(scalar, buf.data() + buf.size());
  EXPECT_EQ(fastValue, scalarValue);
  EXPECT_EQ(fast - buf.data(), scalar - buf.data());
  EXPECT_EQ(static_cast<std::size_t>(fast - buf.data()), encoded.size());
  return fastValue;
}

}  // namespace

TEST(VarintProperty, RandomRoundTripsOnBothPaths) {
  Rng rng(2026);
  for (int i = 0; i < 5000; ++i) {
    // Bit-width-uniform values so every encoded length 1..10 is hit.
    const auto bits = static_cast<std::uint32_t>(rng.uniformInt(0, 63));
    const std::uint64_t v = rng() >> (63 - bits);
    const auto encoded = encodeLeb128(v);
    for (const std::size_t padding : {std::size_t{0}, std::size_t{16}}) {
      EXPECT_EQ(decodeBothWays(encoded, padding), v);
    }
  }
}

TEST(VarintProperty, BoundaryPaddingSweepsScalarVsFast) {
  // Around the 10-byte fast-path threshold the two implementations must
  // agree for every remaining-bytes count.
  const std::uint64_t v = ~std::uint64_t{0};  // max-length encoding
  const auto encoded = encodeLeb128(v);
  ASSERT_EQ(encoded.size(), 10u);
  for (std::size_t padding = 0; padding <= 12; ++padding) {
    EXPECT_EQ(decodeBothWays(encoded, padding), v);
  }
}

TEST(VarintProperty, TruncatedEncodingsThrowTruncatedInput) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t v = rng() | (1ULL << 60);  // multi-byte for sure
    const auto encoded = encodeLeb128(v);
    for (std::size_t keep = 0; keep < encoded.size(); ++keep) {
      std::vector<unsigned char> buf(encoded.begin(),
                                     encoded.begin() + keep);
      const unsigned char* p = buf.data();
      try {
        (void)detail::decodeVarint(p, buf.data() + buf.size());
        FAIL() << "truncated varint decoded";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::TruncatedInput);
      }
    }
  }
}

TEST(VarintProperty, OverlongEncodingsThrowMalformedEvent) {
  // 10 continuation bytes followed by more payload: the encoding would
  // exceed 64 value bits. Both paths must classify it as malformed, on
  // the fast path (ample padding) and the scalar path alike.
  std::vector<unsigned char> overlong(11, 0x80);
  overlong.push_back(0x01);
  for (const std::size_t padding : {std::size_t{0}, std::size_t{16}}) {
    std::vector<unsigned char> buf = overlong;
    buf.insert(buf.end(), padding, 0x00);
    const unsigned char* fast = buf.data();
    try {
      (void)detail::decodeVarint(fast, buf.data() + buf.size());
      FAIL() << "overlong varint decoded";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::MalformedEvent);
    }
    const unsigned char* scalar = buf.data();
    try {
      (void)detail::decodeVarintScalar(scalar, buf.data() + buf.size());
      FAIL() << "overlong varint decoded (scalar)";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::MalformedEvent);
    }
  }
}

TEST(VarintProperty, TenthByteHighBitsDropLikeScalar) {
  // A 10-byte encoding whose final byte carries payload bits above bit
  // 63: the scalar loop shifts them out (shift 63 keeps only the low
  // bit), and the fast path must reproduce that exactly.
  std::vector<unsigned char> encoded(9, 0x80);
  encoded.push_back(0x7F);  // bits 63..69 set, only bit 63 survives
  for (const std::size_t padding : {std::size_t{0}, std::size_t{16}}) {
    EXPECT_EQ(decodeBothWays(encoded, padding), 1ULL << 63);
  }
}

}  // namespace
}  // namespace perfvar::trace
