/// Robustness: corrupted or truncated inputs must produce perfvar::Error,
/// never crashes or silent misreads. Randomized byte-level corruption of
/// PVTF images (both on-disk layouts). Checksum-valid files with dangling
/// function or metric refs must make the analysis stages throw, not read
/// out of bounds.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/patterns.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/sos.hpp"
#include "analysis/streaming.hpp"
#include "apps/paper_examples.hpp"
#include "engine/engine.hpp"
#include "lint/lint.hpp"
#include "profile/profile.hpp"
#include "support/fault_injection.hpp"
#include "trace/binary_io.hpp"
#include "trace/view.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "vis/timeline.hpp"

namespace perfvar::trace {
namespace {

std::string binaryImage(const Trace& tr,
                        std::uint32_t version = kBinaryFormatV2) {
  const perfvar::testing::Image image =
      perfvar::testing::encodeImage(tr, version);
  return std::string(image.begin(), image.end());
}

void expectDecodeThrows(const std::string& bytes, std::size_t threads = 1) {
  BinaryReadOptions options;
  options.threads = threads;
  EXPECT_THROW(readBinaryBuffer(bytes.data(), bytes.size(), options), Error);
}

/// Sweeps run against both format versions: (seed, version).
class CorruptionSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::uint32_t>> {
protected:
  std::uint64_t seed() const { return std::get<0>(GetParam()); }
  std::uint32_t version() const { return std::get<1>(GetParam()); }
};

TEST_P(CorruptionSweep, SingleByteFlipsNeverCrashAndNeverPassSilently) {
  const Trace original = apps::buildFigure3Trace();
  const std::string clean = binaryImage(original, version());
  Rng rng(seed());
  for (int trial = 0; trial < 60; ++trial) {
    std::string corrupted = clean;
    const auto pos = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(clean.size()) - 1));
    const auto mask = static_cast<char>(rng.uniformInt(1, 255));
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ mask);
    std::istringstream is(corrupted);
    try {
      const Trace loaded = readBinary(is);
      // A flip in a payload byte can only be accepted if the checksum was
      // flipped to match - impossible for a single flip - or the flip hit
      // a byte whose change is structurally invisible. That never happens
      // for PVTF: in v1 every payload byte feeds the whole-file checksum,
      // and in v2 every byte is covered by exactly one of the header,
      // definitions or per-block hashes (a flip of a stored hash itself
      // mismatches the recomputed one). Reaching here means the reader
      // failed to detect corruption.
      FAIL() << "corruption at byte " << pos << " (mask "
             << static_cast<int>(mask) << ") was not detected";
    } catch (const Error&) {
      // expected
    }
  }
}

TEST_P(CorruptionSweep, RandomTruncationsAlwaysThrow) {
  const Trace original = apps::buildFigure2Trace();
  const std::string clean = binaryImage(original, version());
  Rng rng(seed() * 31);
  for (int trial = 0; trial < 40; ++trial) {
    const auto cut = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(clean.size()) - 1));
    std::istringstream is(clean.substr(0, cut));
    EXPECT_THROW(readBinary(is), Error) << "cut at " << cut;
    expectDecodeThrows(clean.substr(0, cut));
  }
}

TEST_P(CorruptionSweep, CorruptedImagesFailCleanlyUnderThreadedDecode) {
  // The parallel block decode must propagate the first worker error as a
  // perfvar::Error on the calling thread - never a crash, a hang, or a
  // partially filled trace handed back to the caller.
  const Trace original = apps::buildFigure3Trace();
  const std::string clean = binaryImage(original, version());
  Rng rng(seed() * 131);
  for (int trial = 0; trial < 30; ++trial) {
    std::string corrupted = clean;
    const auto pos = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(clean.size()) - 1));
    corrupted[pos] = static_cast<char>(
        corrupted[pos] ^ static_cast<char>(rng.uniformInt(1, 255)));
    expectDecodeThrows(corrupted, 4);
  }
  for (int trial = 0; trial < 10; ++trial) {
    const auto cut = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(clean.size()) - 1));
    expectDecodeThrows(clean.substr(0, cut), 4);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CorruptionSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(kBinaryFormatV1, kBinaryFormatV2)),
    [](const auto& p) {
      return "seed" + std::to_string(std::get<0>(p.param)) + "v" +
             std::to_string(std::get<1>(p.param));
    });

TEST(CorruptionTargeted, FlippedChecksumFieldsAreRejected) {
  // Hit the stored hash fields of the v2 layout directly: the prologue
  // header hash (offset 8), the definitions hash (offset 40) and each
  // block-table checksum (last 8 bytes of a 32-byte entry from offset 48).
  const Trace original = apps::buildFigure3Trace();
  const std::string clean = binaryImage(original, kBinaryFormatV2);
  const std::size_t processCount = original.processCount();
  std::vector<std::size_t> targets = {8, 40};
  for (std::size_t p = 0; p < processCount; ++p) {
    targets.push_back(48 + 32 * p + 24);
  }
  for (const std::size_t pos : targets) {
    ASSERT_LT(pos, clean.size());
    std::string corrupted = clean;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x01);
    std::istringstream is(corrupted);
    EXPECT_THROW(readBinary(is), Error) << "hash field at " << pos;
  }
  // The v1 trailing whole-file checksum.
  const std::string v1 = binaryImage(original, kBinaryFormatV1);
  std::string corrupted = v1;
  corrupted[v1.size() - 1] = static_cast<char>(corrupted[v1.size() - 1] ^ 1);
  std::istringstream is(corrupted);
  EXPECT_THROW(readBinary(is), Error);
}

TEST(CorruptionTargeted, GarbageBytesAlwaysThrow) {
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    std::string garbage(static_cast<std::size_t>(rng.uniformInt(0, 200)),
                        '\0');
    for (auto& c : garbage) {
      c = static_cast<char>(rng.uniformInt(0, 255));
    }
    std::istringstream is(garbage);
    EXPECT_THROW(readBinary(is), Error);
    expectDecodeThrows(garbage);
  }
}

TEST(CorruptionTargeted, GarbageWithValidPrologueAlwaysThrows) {
  // Valid magic + version, random everything after: exercises the header
  // and table bounds checks rather than the magic check.
  Rng rng(99);
  for (const std::uint32_t version : {kBinaryFormatV1, kBinaryFormatV2}) {
    for (int trial = 0; trial < 40; ++trial) {
      std::string bytes = "PVTF";
      bytes.push_back(static_cast<char>(version));
      bytes.append(3, '\0');
      const auto n = static_cast<std::size_t>(rng.uniformInt(0, 300));
      for (std::size_t i = 0; i < n; ++i) {
        bytes.push_back(static_cast<char>(rng.uniformInt(0, 255)));
      }
      std::istringstream is(bytes);
      EXPECT_THROW(readBinary(is), Error);
      expectDecodeThrows(bytes);
      expectDecodeThrows(bytes, 4);
    }
  }
}

// ---- dangling refs in checksum-valid files --------------------------------

/// Two ranks, each `enter 0, enter 5000000, leave 5000000, leave 0`: the
/// file is well-formed and checksummed, function 5000000 is undefined.
Trace danglingFunctionTrace() {
  Trace tr;
  tr.functions.intern("main", "APP");
  for (const char* name : {"r0", "r1"}) {
    tr.processes.push_back({name,
                            {Event::enter(1, 0), Event::enter(2, 5000000),
                             Event::leave(3, 5000000), Event::leave(4, 0)}});
  }
  return tr;
}

/// `main` runs three times on rank 0 and twice on rank 1, and rank 0
/// samples undefined metric 7. Were the profile to accept the sample,
/// lint's segment-skew rule would fire on the uneven counts.
Trace danglingMetricTrace() {
  Trace tr;
  tr.functions.intern("main", "APP");
  tr.metrics.intern("cycles", "count");
  tr.processes.push_back({"r0",
                          {Event::enter(1, 0), Event::metric(2, 7, 1.0),
                           Event::leave(3, 0), Event::enter(4, 0),
                           Event::leave(5, 0), Event::enter(6, 0),
                           Event::leave(7, 0)}});
  tr.processes.push_back(
      {"r1",
       {Event::enter(1, 0), Event::leave(2, 0), Event::enter(3, 0),
        Event::leave(4, 0)}});
  return tr;
}

/// Every analysis entry point throws perfvar::Error on `view`.
void expectStagesThrow(const TraceView& view) {
  EXPECT_THROW((void)profile::FlatProfile::build(view), Error);
  EXPECT_THROW((void)analysis::analyzeSos(view, 0), Error);
  EXPECT_THROW((void)analysis::analyzeSosWindows(view, 2), Error);
  EXPECT_THROW((void)analysis::analyzeTrace(view), Error);
  engine::AnalysisEngine eng{view};
  EXPECT_THROW((void)eng.analyze(), Error);
  EXPECT_THROW((void)eng.profile(), Error);
}

/// `stage` throws an error that names the ref, and carries MalformedEvent
/// and the rank.
template <typename Stage>
void expectMalformedRefFrom(const char* label, Stage&& stage,
                            const std::string& what) {
  try {
    stage();
    ADD_FAILURE() << label << ": expected an undefined-ref error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::MalformedEvent) << label;
    EXPECT_EQ(e.rank(), 0) << label;
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << label << ": " << e.what();
  }
}

/// The profile, and the in-situ analyzer on eager views, reject the ref.
void expectMalformedRef(const TraceView& view, const std::string& what) {
  expectMalformedRefFrom(
      "profile", [&] { (void)profile::FlatProfile::build(view); }, what);
  if (const Trace* eager = view.eagerOrNull()) {
    expectMalformedRefFrom(
        "streaming",
        [&] {
          analysis::StreamingSos sos(*eager, 0);
          analysis::StreamingSos::replay(*eager, sos);
        },
        what);
  }
}

/// The in-memory trace, then the same trace after a v1 and a v2 file
/// round trip, eager and lazy.
std::vector<TraceView> roundTrips(const Trace& tr, const std::string& stem) {
  std::vector<TraceView> views;
  views.push_back(TraceView::owned(Trace(tr)));
  for (const std::uint32_t version : {kBinaryFormatV1, kBinaryFormatV2}) {
    const std::string path = stem + "_v" + std::to_string(version) + ".pvt";
    const std::string bytes = binaryImage(tr, version);
    std::ofstream(path, std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    views.push_back(TraceView::owned(loadBinaryFile(path)));
    if (version == kBinaryFormatV2) {
      views.push_back(TraceView::openFile(path));
    }
    std::remove(path.c_str());
  }
  return views;
}

TEST(DanglingRefs, UndefinedFunctionRefThrowsFromEveryStage) {
  for (const TraceView& view :
       roundTrips(danglingFunctionTrace(), "robustness_dangling_fn")) {
    expectStagesThrow(view);
    expectMalformedRef(view, "undefined function ref 5000000");
    expectMalformedRefFrom(
        "patterns", [&] { (void)analysis::findWaitStates(view); },
        "undefined function ref 5000000");
    expectMalformedRefFrom(
        "timeline",
        [&] {
          (void)vis::renderTimelineSvg(view, vis::FunctionColors::standard(view),
                                       vis::TimelineOptions{});
        },
        "undefined function ref 5000000");
    expectMalformedRefFrom(
        "paradigm share", [&] { (void)vis::paradigmShareOverTime(view, 4); },
        "undefined function ref 5000000");
  }
}

TEST(DanglingRefs, UndefinedMetricRefThrowsFromEveryStage) {
  for (const TraceView& view :
       roundTrips(danglingMetricTrace(), "robustness_dangling_metric")) {
    expectStagesThrow(view);
    expectMalformedRef(view, "undefined metric ref 7");
  }
}

TEST(DanglingRefs, LintReportsOnlyTheStructuralFindings) {
  const std::string functionReport =
      "lint: 15 rule(s), 2 process(es)\n"
      "error [undefined-function-ref] process 0, event 1: enter references "
      "undefined function\n"
      "error [undefined-function-ref] process 0, event 2: leave references "
      "undefined function\n"
      "error [undefined-function-ref] process 1, event 1: enter references "
      "undefined function\n"
      "error [undefined-function-ref] process 1, event 2: leave references "
      "undefined function\n"
      "4 error(s), 0 warning(s), 0 info\n";
  const std::string metricReport =
      "lint: 15 rule(s), 2 process(es)\n"
      "error [undefined-metric-ref] process 0, event 1: metric sample "
      "references undefined metric\n"
      "1 error(s), 0 warning(s), 0 info\n";
  for (const auto& [tr, expected] :
       {std::pair{danglingFunctionTrace(), functionReport},
        std::pair{danglingMetricTrace(), metricReport}}) {
    for (const TraceView& view : roundTrips(tr, "robustness_dangling_lint")) {
      EXPECT_EQ(lint::formatLintReport(lint::lintTrace(view)), expected);
      engine::AnalysisEngine eng{view};
      EXPECT_EQ(lint::formatLintReport(*eng.lintReport()), expected);
    }
  }
}

}  // namespace
}  // namespace perfvar::trace
