#include <gtest/gtest.h>

#include <sstream>

#include "trace/binary_io.hpp"
#include "trace/builder.hpp"
#include "trace/text_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfvar::trace {
namespace {

Trace sampleTrace() {
  TraceBuilder b(3);
  const auto f = b.defineFunction("solve \"quoted\"", "APP");
  const auto g = b.defineFunction("MPI_Barrier", "MPI", Paradigm::MPI);
  const auto m = b.defineMetric("PAPI_TOT_CYC", "cycles");
  b.setProcessName(2, "Rank two \\ special");
  for (ProcessId p = 0; p < 3; ++p) {
    b.enter(p, p, f);
    b.metric(p, p + 1, m, 3.25 * (p + 1));
    b.enter(p, p + 2, g);
    b.leave(p, p + 5, g);
    b.leave(p, p + 9, f);
  }
  b.mpiSend(0, 100, 1, 7, 4096);
  b.mpiRecv(1, 120, 0, 7, 4096);
  return b.finish();
}

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

TEST(BinaryIo, RoundTripsSampleTrace) {
  const Trace original = sampleTrace();
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  writeBinary(original, buf);
  const Trace loaded = readBinary(buf);
  expectTracesEqual(original, loaded);
}

TEST(BinaryIo, RejectsBadMagic) {
  std::stringstream buf;
  buf << "NOPE and more bytes here";
  EXPECT_THROW(readBinary(buf), Error);
}

TEST(BinaryIo, RejectsTruncation) {
  const Trace original = sampleTrace();
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  writeBinary(original, buf);
  const std::string full = buf.str();
  for (const std::size_t cut : {5ul, full.size() / 2, full.size() - 3}) {
    std::stringstream cutBuf(full.substr(0, cut),
                             std::ios::in | std::ios::binary);
    EXPECT_THROW(readBinary(cutBuf), Error) << "cut at " << cut;
  }
}

TEST(BinaryIo, RejectsBitFlips) {
  const Trace original = sampleTrace();
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  writeBinary(original, buf);
  std::string bytes = buf.str();
  // Flip a byte in the middle of the payload: either a structural check
  // or the checksum must catch it.
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  std::stringstream corrupted(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW(readBinary(corrupted), Error);
}

TEST(BinaryIo, FileRoundTrip) {
  const Trace original = sampleTrace();
  const std::string path = ::testing::TempDir() + "/perfvar_io_test.pvt";
  saveBinaryFile(original, path);
  const Trace loaded = loadBinaryFile(path);
  expectTracesEqual(original, loaded);
}

TEST(BinaryIo, MissingFileThrows) {
  EXPECT_THROW(loadBinaryFile("/nonexistent/dir/file.pvt"), Error);
}

TEST(TextIo, DumpEscapesQuotesAndBackslashes) {
  // Every record kind; quotes and backslashes in names are escaped.
  EXPECT_EQ(toText(sampleTrace()), R"pvtx(PVTX 1
resolution 1000000000
function 0 "solve \"quoted\"" "APP" COMPUTE
function 1 "MPI_Barrier" "MPI" MPI
metric 0 "PAPI_TOT_CYC" "cycles" ACCUMULATED
process 0 "Rank 0"
E 0 0
M 1 0 3.25
E 2 1
L 5 1
L 9 0
S 100 1 7 4096
process 1 "Rank 1"
E 1 0
M 2 0 6.5
E 3 1
L 6 1
L 10 0
R 120 0 7 4096
process 2 "Rank two \\ special"
E 2 0
M 3 0 9.75
E 4 1
L 7 1
L 11 0
)pvtx");
}

// Property: random traces round-trip through PVTF.
class IoRoundTripSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoRoundTripSweep, RandomTraceRoundTrips) {
  Rng rng(GetParam());
  const auto nProcs = static_cast<std::size_t>(rng.uniformInt(1, 5));
  TraceBuilder b(nProcs);
  std::vector<FunctionId> fns;
  const auto nFuncs = rng.uniformInt(1, 6);
  for (std::int64_t i = 0; i < nFuncs; ++i) {
    fns.push_back(b.defineFunction(
        "f" + std::to_string(i), i % 2 ? "MPI" : "APP",
        i % 2 ? Paradigm::MPI : Paradigm::Compute));
  }
  const auto m = b.defineMetric("counter");
  for (ProcessId p = 0; p < nProcs; ++p) {
    Timestamp t = static_cast<Timestamp>(rng.uniformInt(0, 10));
    std::vector<FunctionId> stack;
    const auto steps = rng.uniformInt(10, 60);
    for (std::int64_t s = 0; s < steps; ++s) {
      t += static_cast<Timestamp>(rng.uniformInt(0, 1000));
      const auto roll = rng.uniformInt(0, 3);
      if ((roll < 2 || stack.empty()) && stack.size() < 8) {
        const auto f = fns[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(fns.size()) - 1))];
        b.enter(p, t, f);
        stack.push_back(f);
      } else if (roll == 2 && !stack.empty()) {
        b.leave(p, t, stack.back());
        stack.pop_back();
      } else {
        b.metric(p, t, m, rng.uniform(0.0, 1e9));
      }
    }
    while (!stack.empty()) {
      t += 1;
      b.leave(p, t, stack.back());
      stack.pop_back();
    }
  }
  const Trace original = b.finish();

  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  writeBinary(original, buf);
  expectTracesEqual(original, readBinary(buf));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoRoundTripSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace perfvar::trace
