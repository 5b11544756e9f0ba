/// Deterministic fault-injection matrix over the PVTF readers
/// (perfvar::testing::FaultInjector): for every corruption class and both
/// on-disk formats, Strict mode must throw the right ErrorCode, Salvage
/// mode must never throw on block-local faults and must return every
/// healthy rank bit-exactly, and analyzing a salvaged trace must equal
/// analyzing the original with the quarantined ranks filtered out — at 1
/// and 8 decode threads. An exhaustive truncation sweep closes the
/// matrix: a load of every possible prefix either succeeds or throws
/// perfvar::Error (no crash, no hang, no foreign exception).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "analysis/pipeline.hpp"
#include "apps/cosmo_specs.hpp"
#include "sim/simulator.hpp"
#include "support/fault_injection.hpp"
#include "trace/binary_io.hpp"
#include "trace/builder.hpp"
#include "trace/filter.hpp"
#include "util/error.hpp"
#include "lint/lint.hpp"

namespace perfvar::trace {
namespace {

namespace ft = perfvar::testing;
using ft::FaultInjector;
using ft::Image;

/// A small multi-rank trace exercising every event kind, multi-byte
/// timestamp deltas, escape-coded function ids and neighbor messaging.
Trace syntheticTrace(std::size_t ranks, std::size_t iterations) {
  TraceBuilder b(ranks);
  std::vector<FunctionId> fns;
  for (std::size_t i = 0; i < 40; ++i) {
    fns.push_back(b.defineFunction("fn" + std::to_string(i),
                                   i % 3 ? "APP" : "MPI",
                                   i % 3 ? Paradigm::Compute : Paradigm::MPI));
  }
  const auto m = b.defineMetric("cycles", "count");
  for (ProcessId p = 0; p < ranks; ++p) {
    Timestamp t = 17 * (p + 1);
    for (std::size_t it = 0; it < iterations; ++it) {
      const auto f = fns[(p + it) % fns.size()];
      b.enter(p, t, f);
      t += 3 + ((p * 31 + it * 7) % 5000);
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

void expectTracesEqual(const Trace& a, const Trace& b) {
  EXPECT_EQ(a.resolution, b.resolution);
  ASSERT_EQ(a.processes.size(), b.processes.size());
  for (std::size_t p = 0; p < a.processes.size(); ++p) {
    EXPECT_EQ(a.processes[p].name, b.processes[p].name);
    ASSERT_EQ(a.processes[p].events.size(), b.processes[p].events.size())
        << "rank " << p;
    for (std::size_t i = 0; i < a.processes[p].events.size(); ++i) {
      ASSERT_EQ(a.processes[p].events[i], b.processes[p].events[i])
          << "rank " << p << ", event " << i;
    }
  }
}

BinaryFileInfo inspect(const Image& image) {
  return inspectBinaryBuffer(image.data(), image.size());
}

Trace load(const Image& image, RecoveryMode mode, std::size_t threads,
           LoadReport* report = nullptr) {
  BinaryReadOptions options;
  options.recovery = mode;
  options.threads = threads;
  options.report = report;
  return readBinaryBuffer(image.data(), image.size(), options);
}

/// ErrorCode of a Strict load of `image`; None if the load succeeds.
ErrorCode strictCode(const Image& image, std::size_t threads) {
  try {
    load(image, RecoveryMode::Strict, threads);
  } catch (const Error& e) {
    return e.code();
  }
  return ErrorCode::None;
}

std::vector<std::size_t> quarantinedRanks(const Trace& tr) {
  std::vector<std::size_t> ranks;
  for (const QuarantinedRank& q : tr.quarantined) {
    ranks.push_back(q.process);
  }
  std::sort(ranks.begin(), ranks.end());
  return ranks;
}

/// One corrupted image plus what the readers must do with it.
struct Fault {
  std::string name;
  Image image;
  std::vector<std::size_t> expectQuarantined;
  ErrorCode expectStrict = ErrorCode::None;
};

/// The v2 fault matrix: every fault is block-local, so Salvage must
/// quarantine exactly `expectQuarantined` and keep the rest.
std::vector<Fault> v2Faults(const Image& clean, FaultInjector& inj) {
  const BinaryFileInfo info = inspect(clean);
  const std::size_t n = info.blocks.size();
  const BinaryBlockInfo& mid = info.blocks[n / 2];
  const BinaryBlockInfo& last = info.blocks.back();
  std::vector<Fault> faults;
  faults.push_back({"truncate-mid-last-block",
                    FaultInjector::truncateAt(
                        clean, static_cast<std::size_t>(last.offset) +
                                   static_cast<std::size_t>(last.bytes) / 2),
                    {n - 1},
                    ErrorCode::TruncatedInput});
  faults.push_back({"bit-flip-in-block",
                    inj.bitFlip(clean, static_cast<std::size_t>(mid.offset),
                                static_cast<std::size_t>(mid.offset) +
                                    static_cast<std::size_t>(mid.bytes),
                                3),
                    {n / 2},
                    ErrorCode::ChecksumMismatch});
  faults.push_back({"torn-tail",
                    FaultInjector::tornTail(
                        clean, static_cast<std::size_t>(last.bytes) / 2),
                    {n - 1},
                    ErrorCode::ChecksumMismatch});
  faults.push_back({"zero-table-entry",
                    FaultInjector::zeroTableEntry(clean, 1),
                    {1},
                    ErrorCode::MalformedEvent});
  faults.push_back({"oversize-count",
                    FaultInjector::oversizeCount(clean, 2),
                    {2},
                    ErrorCode::MalformedEvent});
  return faults;
}

// ---- clean images: Salvage is a no-op --------------------------------------

TEST(FaultMatrix, CleanImagesLoadIdenticallyInBothModes) {
  const Trace original = syntheticTrace(6, 30);
  for (const std::uint32_t version : {kBinaryFormatV1, kBinaryFormatV2}) {
    const Image clean = ft::encodeImage(original, version);
    for (const std::size_t threads : {1ul, 8ul}) {
      const Trace strict = load(clean, RecoveryMode::Strict, threads);
      LoadReport report;
      const Trace salvage =
          load(clean, RecoveryMode::Salvage, threads, &report);
      expectTracesEqual(strict, original);
      expectTracesEqual(salvage, original);
      EXPECT_TRUE(salvage.quarantined.empty());
      EXPECT_TRUE(report.clean());
      EXPECT_EQ(report.version, version);
      ASSERT_EQ(report.ranks.size(), original.processes.size());
      for (const RankLoadStatus& st : report.ranks) {
        EXPECT_TRUE(st.ok);
        EXPECT_EQ(st.error, ErrorCode::None);
        EXPECT_EQ(st.eventsSalvaged, st.eventsDeclared);
      }
    }
  }
}

// ---- the v2 matrix ---------------------------------------------------------

TEST(FaultMatrix, StrictV2ThrowsTheRightCode) {
  const Trace original = syntheticTrace(6, 30);
  const Image clean = ft::encodeImage(original, kBinaryFormatV2);
  FaultInjector inj(1);
  for (const Fault& f : v2Faults(clean, inj)) {
    for (const std::size_t threads : {1ul, 8ul}) {
      EXPECT_EQ(strictCode(f.image, threads), f.expectStrict)
          << f.name << " @" << threads << " threads";
    }
  }
}

TEST(FaultMatrix, SalvageV2QuarantinesExactlyTheFaultyRank) {
  const Trace original = syntheticTrace(6, 30);
  const Image clean = ft::encodeImage(original, kBinaryFormatV2);
  FaultInjector inj(2);
  for (const Fault& f : v2Faults(clean, inj)) {
    for (const std::size_t threads : {1ul, 8ul}) {
      SCOPED_TRACE(f.name + " @" + std::to_string(threads) + " threads");
      LoadReport report;
      Trace tr;
      ASSERT_NO_THROW(
          tr = load(f.image, RecoveryMode::Salvage, threads, &report));
      EXPECT_EQ(quarantinedRanks(tr), f.expectQuarantined);
      ASSERT_EQ(report.ranks.size(), original.processes.size());
      for (std::size_t p = 0; p < report.ranks.size(); ++p) {
        const bool expectOk =
            std::find(f.expectQuarantined.begin(), f.expectQuarantined.end(),
                      p) == f.expectQuarantined.end();
        EXPECT_EQ(report.ranks[p].ok, expectOk) << "rank " << p;
        if (expectOk) {
          // Healthy ranks survive bit-exactly.
          const auto& got = tr.processes[p].events;
          const auto& want = original.processes[p].events;
          ASSERT_EQ(got.size(), want.size()) << "rank " << p;
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], want[i]) << "rank " << p << ", event " << i;
          }
        }
      }
      // Salvaged prefixes are balanced: the whole trace still validates.
      EXPECT_TRUE(lint::validateStructure(tr).empty());
      // The same faulty image quarantines the same ranks every time.
      LoadReport again;
      const Trace tr2 =
          load(f.image, RecoveryMode::Salvage, threads, &again);
      EXPECT_EQ(quarantinedRanks(tr2), quarantinedRanks(tr));
    }
  }
}

// ---- the v1 matrix ---------------------------------------------------------

TEST(FaultMatrix, StrictV1ThrowsAClassifiedError) {
  const Trace original = syntheticTrace(6, 30);
  const Image clean = ft::encodeImage(original, kBinaryFormatV1);
  const BinaryFileInfo info = inspect(clean);
  FaultInjector inj(3);
  const BinaryBlockInfo& b3 = info.blocks[3];
  const std::vector<Image> faulty = {
      FaultInjector::truncateAt(clean,
                                static_cast<std::size_t>(b3.offset) +
                                    static_cast<std::size_t>(b3.bytes) / 2),
      inj.bitFlip(clean, static_cast<std::size_t>(b3.offset),
                  static_cast<std::size_t>(b3.offset) +
                      static_cast<std::size_t>(b3.bytes),
                  3),
      FaultInjector::tornTail(clean, 32),
  };
  for (std::size_t i = 0; i < faulty.size(); ++i) {
    for (const std::size_t threads : {1ul, 8ul}) {
      const ErrorCode code = strictCode(faulty[i], threads);
      // v1 is one checksummed stream: depending on where the damage
      // lands, the decoder sees a short read, a structurally invalid
      // event, or a trailer mismatch — but always a classified fault.
      EXPECT_TRUE(code == ErrorCode::TruncatedInput ||
                  code == ErrorCode::MalformedEvent ||
                  code == ErrorCode::ChecksumMismatch)
          << "fault " << i << ": code " << errorCodeName(code);
    }
  }
}

TEST(FaultMatrix, SalvageV1KeepsThePrefixOnTruncation) {
  const Trace original = syntheticTrace(6, 30);
  const Image clean = ft::encodeImage(original, kBinaryFormatV1);
  const BinaryFileInfo info = inspect(clean);
  // Cut in the middle of rank 3's stream: ranks 0-2 decode fully before
  // the cut and are trusted; 3 keeps its salvaged prefix; 4-5 are gone.
  const BinaryBlockInfo& b3 = info.blocks[3];
  const Image cut = FaultInjector::truncateAt(
      clean, static_cast<std::size_t>(b3.offset) +
                 static_cast<std::size_t>(b3.bytes) / 2);
  LoadReport report;
  Trace tr;
  ASSERT_NO_THROW(tr = load(cut, RecoveryMode::Salvage, 1, &report));
  EXPECT_EQ(quarantinedRanks(tr), (std::vector<std::size_t>{3, 4, 5}));
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_TRUE(report.ranks[p].ok) << "rank " << p;
    const auto& got = tr.processes[p].events;
    const auto& want = original.processes[p].events;
    ASSERT_EQ(got.size(), want.size()) << "rank " << p;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "rank " << p << ", event " << i;
    }
  }
  for (std::size_t p = 3; p < 6; ++p) {
    EXPECT_FALSE(report.ranks[p].ok) << "rank " << p;
    EXPECT_EQ(report.ranks[p].error, ErrorCode::TruncatedInput);
  }
  EXPECT_TRUE(lint::validateStructure(tr).empty());
}

TEST(FaultMatrix, SalvageV1QuarantinesEverythingOnContentDamage) {
  // A bit flip inside the single v1 checksum domain leaves no rank
  // trustworthy: the load must survive but quarantine all of them.
  const Trace original = syntheticTrace(4, 20);
  const Image clean = ft::encodeImage(original, kBinaryFormatV1);
  const BinaryFileInfo info = inspect(clean);
  FaultInjector inj(4);
  const BinaryBlockInfo& b1 = info.blocks[1];
  const Image bad =
      inj.bitFlip(clean, static_cast<std::size_t>(b1.offset),
                  static_cast<std::size_t>(b1.offset) +
                      static_cast<std::size_t>(b1.bytes),
                  1);
  LoadReport report;
  Trace tr;
  ASSERT_NO_THROW(tr = load(bad, RecoveryMode::Salvage, 1, &report));
  EXPECT_EQ(report.quarantinedCount(), original.processes.size());
  EXPECT_EQ(tr.quarantined.size(), original.processes.size());
}

// ---- analysis equivalence --------------------------------------------------

TEST(FaultMatrix, SalvagedAnalysisEqualsFilteredAnalysis) {
  apps::CosmoSpecsConfig cfg;
  cfg.gridX = 4;
  cfg.gridY = 4;
  cfg.timesteps = 12;
  const auto scenario = apps::buildCosmoSpecs(cfg);
  const Trace original = sim::simulate(scenario.program, scenario.simOptions);
  const Image clean = ft::encodeImage(original, kBinaryFormatV2);
  const BinaryFileInfo info = inspect(clean);
  FaultInjector inj(5);
  const std::size_t victim = info.blocks.size() / 2;
  const BinaryBlockInfo& vb = info.blocks[victim];
  const Image bad =
      inj.bitFlip(clean, static_cast<std::size_t>(vb.offset),
                  static_cast<std::size_t>(vb.offset) +
                      static_cast<std::size_t>(vb.bytes),
                  1);
  std::vector<ProcessId> healthy;
  for (std::size_t p = 0; p < original.processes.size(); ++p) {
    if (p != victim) {
      healthy.push_back(static_cast<ProcessId>(p));
    }
  }
  const Trace filtered = selectProcesses(original, healthy);
  for (const std::size_t threads : {1ul, 8ul}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    LoadReport report;
    const Trace salvaged =
        load(bad, RecoveryMode::Salvage, threads, &report);
    ASSERT_EQ(report.quarantinedCount(), 1u);
    // Dropping the quarantined rank reproduces the filtered trace.
    expectTracesEqual(dropQuarantined(salvaged), filtered);
    // ... and the analysis agrees, at every thread count.
    analysis::PipelineOptions opts;
    opts.threads = threads;
    const auto fromSalvaged = analysis::analyzeTrace(salvaged, opts);
    const auto fromFiltered = analysis::analyzeTrace(filtered, opts);
    EXPECT_EQ(analysis::formatAnalysis(filtered, fromSalvaged),
              analysis::formatAnalysis(filtered, fromFiltered));
    // The degraded-input section names the quarantined rank.
    const std::string degraded =
        analysis::formatAnalysis(salvaged, fromSalvaged);
    EXPECT_NE(degraded.find("degraded input"), std::string::npos);
    EXPECT_NE(degraded.find("checksum-mismatch"), std::string::npos);
  }
}

// ---- exhaustive truncation sweep -------------------------------------------

TEST(TruncationSweep, EveryPrefixLoadsOrThrowsError) {
  const Trace small = syntheticTrace(2, 5);
  for (const std::uint32_t version : {kBinaryFormatV1, kBinaryFormatV2}) {
    const Image image = ft::encodeImage(small, version);
    for (std::size_t n = 0; n < image.size(); ++n) {
      const Image cut = FaultInjector::truncateAt(image, n);
      for (const RecoveryMode mode :
           {RecoveryMode::Strict, RecoveryMode::Salvage}) {
        try {
          load(cut, mode, 1);
        } catch (const Error&) {
          // A classified failure is the only acceptable outcome besides
          // success; anything else (std::bad_alloc, a segfault under
          // ASan, a foreign exception) fails the test.
        }
      }
    }
  }
}

// ---- injector determinism --------------------------------------------------

TEST(FaultInjectorTest, SeededFlipsAreReproducible) {
  const Trace tr = syntheticTrace(3, 8);
  const Image image = ft::encodeImage(tr, kBinaryFormatV2);
  FaultInjector a(7);
  FaultInjector b(7);
  FaultInjector c(8);
  const Image fa = a.bitFlip(image, 8, image.size(), 4);
  const Image fb = b.bitFlip(image, 8, image.size(), 4);
  const Image fc = c.bitFlip(image, 8, image.size(), 4);
  EXPECT_EQ(fa, fb);
  EXPECT_NE(fa, fc);
  EXPECT_NE(fa, image);  // distinct-bit flips cannot cancel out
}

}  // namespace
}  // namespace perfvar::trace
