/// End-to-end integration tests for the trace_tool CLI: exit-code
/// contract (0 success, 1 runtime error, 2 usage error), rejection of
/// unknown flags/commands, and the `query` session answering from one
/// loaded trace. The binary path comes in via PERFVAR_TRACE_TOOL_BIN.

#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include "apps/cosmo_specs.hpp"
#include "apps/paper_examples.hpp"
#include "sim/simulator.hpp"
#include "support/binary_v1.hpp"
#include "support/fault_injection.hpp"
#include "trace/binary_io.hpp"

#ifndef PERFVAR_TRACE_TOOL_BIN
#error "PERFVAR_TRACE_TOOL_BIN must point at the trace_tool executable"
#endif
#ifndef PERFVAR_GOLDEN_DIR
#error "PERFVAR_GOLDEN_DIR must point at tests/golden"
#endif

namespace perfvar {
namespace {

struct RunResult {
  int exitCode = -1;
  std::string out;
};

/// Run a shell command, capture stdout and the exit code. stderr is left
/// alone (it shows up in the test log, which is where diagnostics belong).
RunResult run(const std::string& command) {
  RunResult r;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return r;
  }
  char buf[4096];
  std::size_t n = 0;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) {
    r.out.append(buf, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) {
    r.exitCode = WEXITSTATUS(status);
  }
  return r;
}

std::string tool() { return std::string(PERFVAR_TRACE_TOOL_BIN); }

/// Per-process fixture file name: ctest runs each test in its own
/// process from one working directory, so a fixed name would let two
/// concurrently-starting tests race on writing the same file.
std::string uniqueName(const std::string& stem) {
  return stem + "_" + std::to_string(getpid()) + ".pvt";
}

/// Shared fixture trace on disk (written once per test binary).
const std::string& tracePath() {
  static const std::string path = [] {
    apps::CosmoSpecsConfig cfg;
    cfg.gridX = 4;
    cfg.gridY = 4;
    cfg.timesteps = 12;
    const auto scenario = apps::buildCosmoSpecs(cfg);
    const trace::Trace tr =
        sim::simulate(scenario.program, scenario.simOptions);
    const std::string p = uniqueName("tool_cli_test");
    trace::saveBinaryFile(tr, p);
    return p;
  }();
  return path;
}

/// A copy of the trace at `cleanPath` with a bit flipped in its last
/// rank's v2 block, written under a per-process name built from `stem`.
std::string damageLastRank(const std::string& cleanPath,
                           const std::string& stem) {
  const trace::Trace tr = trace::loadBinaryFile(cleanPath);
  const perfvar::testing::Image clean =
      perfvar::testing::encodeImage(tr, trace::kBinaryFormatV2);
  const trace::BinaryFileInfo info =
      trace::inspectBinaryBuffer(clean.data(), clean.size());
  const trace::BinaryBlockInfo& block = info.blocks.back();
  perfvar::testing::FaultInjector injector(11);
  const perfvar::testing::Image bad = injector.bitFlip(
      clean, static_cast<std::size_t>(block.offset),
      static_cast<std::size_t>(block.offset) +
          static_cast<std::size_t>(block.bytes));
  const std::string p = uniqueName(stem);
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bad.data()),
            static_cast<std::streamsize>(bad.size()));
  return p;
}

/// A copy of the fixture trace with one rank's v2 block corrupted
/// (written once per test binary).
const std::string& corruptTracePath() {
  static const std::string path =
      damageLastRank(tracePath(), "tool_cli_test_corrupt");
  return path;
}

// ---- exit-code contract --------------------------------------------------

TEST(ToolCli, HelpPrintsUsageAndExitsZero) {
  const RunResult r = run(tool() + " --help");
  EXPECT_EQ(r.exitCode, 0);
  EXPECT_NE(r.out.find("usage: trace_tool"), std::string::npos);
  EXPECT_NE(r.out.find("exit codes:"), std::string::npos);
}

TEST(ToolCli, UnknownOptionIsAUsageError) {
  const RunResult r = run(tool() + " --frobnicate 2>/dev/null");
  EXPECT_EQ(r.exitCode, 2);
}

TEST(ToolCli, UnknownCommandIsAUsageError) {
  const RunResult r = run(tool() + " frobnicate 2>/dev/null");
  EXPECT_EQ(r.exitCode, 2);
}

TEST(ToolCli, ArchiveAndUnarchiveAreUnknownCommands) {
  // PVTF v2 reads any rank on its own; there is no multi-file archive.
  for (const std::string cmd : {"archive in.pvt dir", "unarchive dir out.pvt"}) {
    const RunResult r = run(tool() + " " + cmd + " 2>&1 1>/dev/null");
    EXPECT_EQ(r.exitCode, 2) << cmd;
    EXPECT_NE(r.out.find("unknown command"), std::string::npos)
        << cmd << " stderr: " << r.out;
  }
}

TEST(ToolCli, MissingArgumentsAreAUsageError) {
  EXPECT_EQ(run(tool() + " analyze 2>/dev/null").exitCode, 2);
  EXPECT_EQ(run(tool() + " slice a b 2>/dev/null").exitCode, 2);
  EXPECT_EQ(run(tool() + " --threads 2>/dev/null").exitCode, 2);
  EXPECT_EQ(run(tool() + " --threads x analyze t.pvt 2>/dev/null").exitCode,
            2);
}

TEST(ToolCli, UnreadableTraceIsARuntimeError) {
  const RunResult r =
      run(tool() + " stats definitely_missing.pvt 2>/dev/null");
  EXPECT_EQ(r.exitCode, 1);
}

TEST(ToolCli, UnknownScenarioIsARuntimeError) {
  const RunResult r =
      run(tool() + " generate no-such-scenario out.pvt 2>/dev/null");
  EXPECT_EQ(r.exitCode, 1);
}

// ---- file inspection and format selection --------------------------------

TEST(ToolCli, InfoPrintsV2LayoutSummary) {
  const RunResult r = run(tool() + " info " + tracePath());
  ASSERT_EQ(r.exitCode, 0);
  EXPECT_NE(r.out.find("format: v2"), std::string::npos);
  EXPECT_NE(r.out.find("size: "), std::string::npos);
  EXPECT_NE(r.out.find("events: "), std::string::npos);
  EXPECT_NE(r.out.find("rank blocks:"), std::string::npos);
  EXPECT_NE(r.out.find("events, "), std::string::npos);  // per-rank line
}

TEST(ToolCli, V1InputIsReadAndRewrittenAsV2) {
  const std::string v1 = uniqueName("tool_cli_fmt_v1");
  const std::string v2 = uniqueName("tool_cli_fmt_v2");
  {
    std::ofstream out(v1, std::ios::binary | std::ios::trunc);
    perfvar::testing::writeBinaryV1(trace::loadBinaryFile(tracePath()), out);
  }
  // A full-range slice is a copy, and every written file is v2.
  ASSERT_EQ(run(tool() + " slice " + v1 + " " + v2 + " 0 1e6").exitCode, 0);

  const RunResult infoV1 = run(tool() + " info " + v1);
  ASSERT_EQ(infoV1.exitCode, 0);
  EXPECT_NE(infoV1.out.find("format: v1"), std::string::npos);
  const RunResult infoV2 = run(tool() + " info " + v2);
  ASSERT_EQ(infoV2.exitCode, 0);
  EXPECT_NE(infoV2.out.find("format: v2"), std::string::npos);

  // Both layouts hold the same trace: the analysis output is identical.
  const RunResult a1 = run(tool() + " analyze " + v1);
  const RunResult a2 = run(tool() + " analyze " + v2);
  ASSERT_EQ(a1.exitCode, 0);
  ASSERT_EQ(a2.exitCode, 0);
  EXPECT_EQ(a1.out, a2.out);

  std::remove(v1.c_str());
  std::remove(v2.c_str());
}

TEST(ToolCli, BadFormatValueIsAUsageError) {
  // Every value is bad: v1 is read-only and --format is no option.
  EXPECT_EQ(run(tool() + " --format v1 info " + tracePath() +
                " 2>/dev/null").exitCode,
            2);
  EXPECT_EQ(run(tool() + " --format v3 info " + tracePath() +
                " 2>/dev/null").exitCode,
            2);
  EXPECT_EQ(run(tool() + " --format 2>/dev/null").exitCode, 2);
}

TEST(ToolCli, InfoOnMissingFileIsARuntimeError) {
  EXPECT_EQ(run(tool() + " info definitely_missing.pvt 2>/dev/null").exitCode,
            1);
}

// ---- structured error lines ----------------------------------------------

TEST(ToolCli, MissingInputPrintsTheStructuredErrorLine) {
  // Swap the streams so the pipe captures stderr: load failures must be
  // one greppable `error: <code>: <path>` line.
  for (const std::string cmd : {"stats", "info", "analyze", "salvage"}) {
    const std::string trailing = cmd == "salvage" ? " out.pvt" : "";
    const RunResult r = run(tool() + " " + cmd + " definitely_missing.pvt" +
                            trailing + " 2>&1 1>/dev/null");
    EXPECT_EQ(r.exitCode, 1) << cmd;
    EXPECT_NE(r.out.find("error: io-failure: definitely_missing.pvt"),
              std::string::npos)
        << cmd << " stderr: " << r.out;
  }
}

TEST(ToolCli, CorruptInputPrintsTheStructuredErrorLine) {
  const RunResult r =
      run(tool() + " stats " + corruptTracePath() + " 2>&1 1>/dev/null");
  EXPECT_EQ(r.exitCode, 1);
  EXPECT_NE(r.out.find("error: checksum-mismatch: " + corruptTracePath()),
            std::string::npos)
      << "stderr: " << r.out;
}

// ---- salvage and verification --------------------------------------------

TEST(ToolCli, InfoVerifyReportsCleanFilesAsOk) {
  const RunResult r = run(tool() + " info --verify " + tracePath());
  ASSERT_EQ(r.exitCode, 0);
  EXPECT_NE(r.out.find("salvage mode"), std::string::npos);
  EXPECT_NE(r.out.find("ranks ok"), std::string::npos);
  EXPECT_EQ(r.out.find("quarantined"), std::string::npos);
}

TEST(ToolCli, InfoVerifyFlagsACorruptFile) {
  const RunResult r = run(tool() + " info --verify " + corruptTracePath());
  EXPECT_EQ(r.exitCode, 1);
  EXPECT_NE(r.out.find("quarantined: checksum-mismatch"), std::string::npos)
      << r.out;
}

TEST(ToolCli, SalvageRecoversACorruptFileIntoACleanOne) {
  const std::string recovered = uniqueName("tool_cli_test_recovered");
  const RunResult r =
      run(tool() + " salvage " + corruptTracePath() + " " + recovered);
  ASSERT_EQ(r.exitCode, 0) << r.out;
  EXPECT_NE(r.out.find("quarantined"), std::string::npos);
  EXPECT_NE(r.out.find("wrote " + recovered), std::string::npos);

  // The rewritten file is clean: strict loads and validation succeed.
  EXPECT_EQ(run(tool() + " validate " + recovered).exitCode, 0);
  const RunResult verify = run(tool() + " info --verify " + recovered);
  EXPECT_EQ(verify.exitCode, 0);
  std::remove(recovered.c_str());
}

TEST(ToolCli, SalvageFlagLetsAnalyzeRunOnACorruptFile) {
  // Without --salvage the analysis refuses the damaged input ...
  EXPECT_EQ(run(tool() + " analyze " + corruptTracePath() +
                " 2>/dev/null").exitCode,
            1);
  // ... with it the healthy ranks are analyzed and the report says so.
  const RunResult r =
      run(tool() + " --salvage analyze " + corruptTracePath());
  ASSERT_EQ(r.exitCode, 0) << r.out;
  EXPECT_NE(r.out.find("degraded input"), std::string::npos);
  EXPECT_NE(r.out.find("checksum-mismatch"), std::string::npos);
}

// ---- one-shot analysis ---------------------------------------------------

TEST(ToolCli, AnalyzeSucceedsAndThreadsDoNotChangeTheOutput) {
  const RunResult serial = run(tool() + " analyze " + tracePath());
  ASSERT_EQ(serial.exitCode, 0);
  EXPECT_NE(serial.out.find("dominant"), std::string::npos);

  const RunResult parallel =
      run(tool() + " --threads 4 analyze " + tracePath());
  ASSERT_EQ(parallel.exitCode, 0);
  EXPECT_EQ(parallel.out, serial.out);
}

TEST(ToolCli, VerboseAnalyzeAppendsThePoolCountersAfterTheReport) {
  const RunResult plain = run(tool() + " --threads 4 analyze " + tracePath());
  ASSERT_EQ(plain.exitCode, 0);
  const RunResult verbose =
      run(tool() + " --threads 4 --verbose analyze " + tracePath());
  ASSERT_EQ(verbose.exitCode, 0);
  // The report is unchanged; the counter block follows it.
  ASSERT_EQ(verbose.out.substr(0, plain.out.size()), plain.out);
  const std::string tail = verbose.out.substr(plain.out.size());
  EXPECT_EQ(tail.rfind("\nthread pool: 4 workers, tasks=", 0), 0u) << tail;
  EXPECT_NE(tail.find("\n  worker 3: tasks="), std::string::npos) << tail;

  const RunResult serial =
      run(tool() + " --threads 1 --verbose analyze " + tracePath());
  ASSERT_EQ(serial.exitCode, 0);
  EXPECT_NE(serial.out.find("thread pool: serial run (no workers)"),
            std::string::npos)
      << serial.out;
}

TEST(ToolCli, NonFiniteSliceBoundsAreAUsageError) {
  const std::string out = uniqueName("tool_cli_test_slice_nan");
  EXPECT_EQ(run(tool() + " slice " + tracePath() + " " + out +
                " nan 1 2>/dev/null").exitCode,
            2);
  EXPECT_EQ(run(tool() + " slice " + tracePath() + " " + out +
                " 0 inf 2>/dev/null").exitCode,
            2);
  std::remove(out.c_str());
}

// ---- dump ----------------------------------------------------------------

TEST(ToolCli, DumpReproducesTheFigure2GoldenOnEagerAndLazyLoads) {
  const std::string path = uniqueName("tool_cli_test_figure2");
  trace::saveBinaryFile(apps::buildFigure2Trace(), path);
  std::ifstream in(std::string(PERFVAR_GOLDEN_DIR) + "/figure2_dump.pvtx",
                   std::ios::binary);
  ASSERT_TRUE(in) << "missing tests/golden/figure2_dump.pvtx";
  std::ostringstream golden;
  golden << in.rdbuf();
  for (const std::string mode : {"", " --lazy"}) {
    const RunResult r = run(tool() + mode + " dump " + path);
    EXPECT_EQ(r.exitCode, 0) << mode;
    EXPECT_EQ(r.out, golden.str()) << mode;
  }
  std::remove(path.c_str());
}

// ---- lint ----------------------------------------------------------------
// The lint subcommand has its own exit-code contract: 0 = clean (below
// --fail-on), 1 = findings at/above --fail-on, 2 = trace unloadable.

TEST(ToolCli, LintCleanTraceExitsZeroWithNoFindings) {
  const RunResult r = run(tool() + " lint " + tracePath());
  EXPECT_EQ(r.exitCode, 0);
  EXPECT_NE(r.out.find("no findings"), std::string::npos) << r.out;
}

TEST(ToolCli, LintUnloadableTraceExitsTwo) {
  // Without --salvage the corrupt file cannot be loaded at all: that is a
  // load error (2), distinct from "loaded but has findings" (1).
  const RunResult r =
      run(tool() + " lint " + corruptTracePath() + " 2>&1 1>/dev/null");
  EXPECT_EQ(r.exitCode, 2);
  EXPECT_NE(r.out.find("error: checksum-mismatch: " + corruptTracePath()),
            std::string::npos)
      << "stderr: " << r.out;
  EXPECT_EQ(run(tool() + " lint definitely_missing.pvt 2>/dev/null").exitCode,
            2);
}

TEST(ToolCli, LintSalvagedTraceExitsOneNamingQuarantineInteraction) {
  const RunResult r = run(tool() + " --salvage lint " + corruptTracePath());
  EXPECT_EQ(r.exitCode, 1);
  EXPECT_NE(r.out.find("[quarantine-interaction]"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("rank quarantined by salvage load"), std::string::npos);
}

TEST(ToolCli, LintFailOnThresholdControlsTheExitCode) {
  // The salvaged trace's findings are warnings: a warning threshold
  // (default) fails, an error threshold passes.
  EXPECT_EQ(run(tool() + " --salvage lint --fail-on warning " +
                corruptTracePath() + " > /dev/null").exitCode,
            1);
  EXPECT_EQ(run(tool() + " --salvage lint --fail-on error " +
                corruptTracePath() + " > /dev/null").exitCode,
            0);
  // Unknown severity names are usage errors.
  EXPECT_EQ(run(tool() + " lint --fail-on fatal " + tracePath() +
                " 2>/dev/null").exitCode,
            2);
  EXPECT_EQ(run(tool() + " lint --fail-on 2>/dev/null").exitCode, 2);
}

TEST(ToolCli, LintDisableSuppressesARule) {
  const RunResult full = run(tool() + " --salvage lint " + corruptTracePath());
  ASSERT_NE(full.out.find("[quarantine-interaction]"), std::string::npos);
  const RunResult suppressed =
      run(tool() + " --salvage lint --disable quarantine-interaction " +
          corruptTracePath());
  EXPECT_EQ(suppressed.out.find("[quarantine-interaction]"),
            std::string::npos)
      << suppressed.out;
}

TEST(ToolCli, LintJsonIsDeterministicAcrossThreads) {
  const RunResult serial =
      run(tool() + " --salvage lint --json " + corruptTracePath());
  EXPECT_EQ(serial.exitCode, 1);
  EXPECT_EQ(serial.out.rfind("{\"lint\":", 0), 0u) << serial.out;
  const RunResult parallel = run(tool() + " --threads 4 --salvage lint --json " +
                                 corruptTracePath());
  EXPECT_EQ(parallel.exitCode, 1);
  EXPECT_EQ(parallel.out, serial.out);
}

TEST(ToolCli, LintOnlyRestrictsTheRunToTheListedRules) {
  // The salvaged trace has quarantine-interaction findings; restricting
  // the run to an unrelated rule must come back clean (exit 0).
  const RunResult restricted =
      run(tool() + " --salvage lint --only zero-duration " +
          corruptTracePath());
  EXPECT_EQ(restricted.exitCode, 0) << restricted.out;
  EXPECT_EQ(restricted.out.find("[quarantine-interaction]"),
            std::string::npos);
  // Selecting the firing rule preserves the findings exit code.
  const RunResult selected =
      run(tool() + " --salvage lint --only quarantine-interaction " +
          corruptTracePath());
  EXPECT_EQ(selected.exitCode, 1);
  EXPECT_NE(selected.out.find("[quarantine-interaction]"),
            std::string::npos);
}

TEST(ToolCli, LintExcludeSuppressesLikeDisable) {
  const RunResult r =
      run(tool() + " --salvage lint --exclude quarantine-interaction " +
          corruptTracePath());
  EXPECT_EQ(r.out.find("[quarantine-interaction]"), std::string::npos)
      << r.out;
}

TEST(ToolCli, LintUnknownRuleIdsAreUsageErrors) {
  // --only and --exclude are validated against the registry before any
  // trace is loaded: a typo exits 2, it does not silently run nothing.
  EXPECT_EQ(run(tool() + " lint --only no-such-rule " + tracePath() +
                " 2>/dev/null").exitCode,
            2);
  EXPECT_EQ(run(tool() + " lint --exclude no-such-rule " + tracePath() +
                " 2>/dev/null").exitCode,
            2);
  EXPECT_EQ(run(tool() + " lint --only zero-duration,no-such-rule " +
                tracePath() + " 2>/dev/null").exitCode,
            2);
  // Malformed lists (empty segments) are rejected by the parser itself.
  EXPECT_EQ(run(tool() + " lint --only zero-duration, " + tracePath() +
                " 2>/dev/null").exitCode,
            2);
}

// ---- critpath ------------------------------------------------------------

/// Fixture trace with planted cross-rank structure (written once per
/// test binary): the pipeline scenario with its serializing rank.
const std::string& pipelinePath() {
  static const std::string path = [] {
    const std::string p = uniqueName("tool_cli_pipeline");
    const RunResult r = run(tool() + " generate pipeline " + p);
    EXPECT_EQ(r.exitCode, 0) << r.out;
    return p;
  }();
  return path;
}

TEST(ToolCli, CritpathReportsTheSerializingRank) {
  const RunResult r = run(tool() + " critpath " + pipelinePath());
  ASSERT_EQ(r.exitCode, 0);
  EXPECT_NE(r.out.find("dependency analysis:"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("dominated rank 4"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("'stage_compute'"), std::string::npos) << r.out;
}

TEST(ToolCli, CritpathFormatsAndArgumentValidation) {
  const RunResult json = run(tool() + " critpath " + pipelinePath() + " json");
  ASSERT_EQ(json.exitCode, 0);
  EXPECT_EQ(json.out.rfind("{\"dependency_analysis\":", 0), 0u) << json.out;
  const RunResult csv = run(tool() + " critpath " + pipelinePath() + " csv");
  ASSERT_EQ(csv.exitCode, 0);
  EXPECT_EQ(csv.out.rfind("step,kind,", 0), 0u) << csv.out;
  // Unsupported formats and missing operands are usage errors.
  EXPECT_EQ(run(tool() + " critpath " + pipelinePath() +
                " csv-iterations 2>/dev/null").exitCode,
            2);
  EXPECT_EQ(run(tool() + " critpath 2>/dev/null").exitCode, 2);
}

TEST(ToolCli, CritpathIsDeterministicAcrossThreadsAndLazyLoads) {
  const RunResult serial = run(tool() + " critpath " + pipelinePath());
  ASSERT_EQ(serial.exitCode, 0);
  const RunResult threaded =
      run(tool() + " --threads 4 critpath " + pipelinePath());
  ASSERT_EQ(threaded.exitCode, 0);
  EXPECT_EQ(threaded.out, serial.out);
  const RunResult lazy = run(tool() + " --lazy critpath " + pipelinePath());
  ASSERT_EQ(lazy.exitCode, 0);
  EXPECT_EQ(lazy.out, serial.out);
}

// ---- the query session ---------------------------------------------------

TEST(ToolCli, QuerySessionMatchesOneShotAnalyze) {
  const RunResult oneShot = run(tool() + " analyze " + tracePath());
  ASSERT_EQ(oneShot.exitCode, 0);

  // Two analyzes: the second is served from the engine's stage cache and
  // must render byte-identically.
  const RunResult session =
      run("printf 'analyze\\nanalyze\\nquit\\n' | " + tool() + " query " +
          tracePath());
  ASSERT_EQ(session.exitCode, 0);
  EXPECT_EQ(session.out, oneShot.out + oneShot.out);
}

TEST(ToolCli, QueryCacheReportsHitsAfterARepeatedAnalyze) {
  const RunResult session =
      run("printf 'analyze\\nanalyze\\ncache\\nquit\\n' | " + tool() +
          " query " + tracePath() + " > /dev/null; echo done");
  // Re-run capturing only the cache line.
  const RunResult cacheLine =
      run("printf 'analyze\\nanalyze\\ncache\\nquit\\n' | " + tool() +
          " query " + tracePath() + " | grep '^cache:'");
  ASSERT_EQ(session.exitCode, 0);
  ASSERT_NE(cacheLine.out.find("cache: hits="), std::string::npos);
  EXPECT_EQ(cacheLine.out.find("cache: hits=0 "), std::string::npos)
      << "the repeated analyze should have produced cache hits: "
      << cacheLine.out;
}

TEST(ToolCli, QueryDrilldownOptionsChangeTheReport) {
  const RunResult session =
      run("printf 'analyze\\nanalyze threshold 2.0 max-hotspots 3\\nquit\\n'"
          " | " + tool() + " query " + tracePath());
  ASSERT_EQ(session.exitCode, 0);
  EXPECT_NE(session.out.find("dominant"), std::string::npos);
}

TEST(ToolCli, QueryExportJsonMatchesOneShotExport) {
  const RunResult oneShot = run(tool() + " export-json " + tracePath());
  ASSERT_EQ(oneShot.exitCode, 0);
  const RunResult session = run("printf 'export json\\nquit\\n' | " + tool() +
                                " query " + tracePath());
  ASSERT_EQ(session.exitCode, 0);
  EXPECT_EQ(session.out, oneShot.out);
}

TEST(ToolCli, QueryCritpathMatchesTheOneShotCommand) {
  const RunResult oneShot = run(tool() + " critpath " + pipelinePath());
  ASSERT_EQ(oneShot.exitCode, 0);
  // Two critpath queries: the second is a dep stage cache hit and must
  // render byte-identically.
  const RunResult session =
      run("printf 'critpath\\ncritpath\\nquit\\n' | " + tool() + " query " +
          pipelinePath());
  ASSERT_EQ(session.exitCode, 0);
  EXPECT_EQ(session.out, oneShot.out + oneShot.out);
}

TEST(ToolCli, QueryUnknownCommandIsAUsageError) {
  const RunResult r = run("printf 'frobnicate\\n' | " + tool() + " query " +
                          tracePath() + " 2>/dev/null");
  EXPECT_EQ(r.exitCode, 2);
}

TEST(ToolCli, QueryBadOptionValueIsAUsageError) {
  for (const std::string command :
       {"analyze candidate x", "analyze threshold nan",
        "analyze threshold inf", "analyze threshold -inf"}) {
    const RunResult r = run("printf '" + command + "\\n' | " + tool() +
                            " query " + tracePath() + " 2>/dev/null");
    EXPECT_EQ(r.exitCode, 2) << command;
    EXPECT_TRUE(r.out.empty()) << command << ": " << r.out;
  }
}

// The session input grammar, pinned: EOF is a normal way to end the
// session (0), blank/comment lines are skipped, and a final line without
// a trailing newline is still a complete command.

TEST(ToolCli, QueryImmediateEofIsACleanExit) {
  const RunResult r = run("printf '' | " + tool() + " query " + tracePath());
  EXPECT_EQ(r.exitCode, 0);
  EXPECT_TRUE(r.out.empty()) << r.out;
}

TEST(ToolCli, QueryBlankAndCommentLinesAreSkipped) {
  const RunResult r = run("printf '\\n   \\n\\t\\n# note\\n' | " + tool() +
                          " query " + tracePath());
  EXPECT_EQ(r.exitCode, 0);
  EXPECT_TRUE(r.out.empty()) << r.out;
}

TEST(ToolCli, QueryEofMidCommandStillRunsTheCommand) {
  const RunResult oneShot = run(tool() + " analyze " + tracePath());
  ASSERT_EQ(oneShot.exitCode, 0);
  // No trailing newline: getline delivers the partial last line, the
  // command runs, then EOF ends the session with 0.
  const RunResult r =
      run("printf 'analyze' | " + tool() + " query " + tracePath());
  EXPECT_EQ(r.exitCode, 0);
  EXPECT_EQ(r.out, oneShot.out);
}

TEST(ToolCli, QueryOptionWithoutValueIsAUsageError) {
  EXPECT_EQ(run("printf 'analyze threshold\\n' | " + tool() + " query " +
                tracePath() + " 2>/dev/null").exitCode,
            2);
  EXPECT_EQ(run("printf 'export\\n' | " + tool() + " query " + tracePath() +
                " 2>/dev/null").exitCode,
            2);
}

TEST(ToolCli, QueryArgumentCountIsValidated) {
  EXPECT_EQ(run(tool() + " query 2>/dev/null").exitCode, 2);
  EXPECT_EQ(run(tool() + " query a.pvt extra 2>/dev/null").exitCode, 2);
  EXPECT_EQ(run(tool() + " query definitely_missing.pvt </dev/null"
                " 2>/dev/null").exitCode,
            1);
}

// ---- one analysis route: every one-shot verb is a one-line query -------

/// The pipeline fixture with its last rank's block corrupted (written
/// once per test binary).
const std::string& corruptPipelinePath() {
  static const std::string path =
      damageLastRank(pipelinePath(), "tool_cli_pipeline_corrupt");
  return path;
}

TEST(ToolCli, SalvageCritpathLoadsEagerlyAsLazily) {
  const RunResult eager =
      run(tool() + " --salvage critpath " + corruptPipelinePath());
  ASSERT_EQ(eager.exitCode, 0);
  EXPECT_NE(eager.out.find("dependency analysis:"), std::string::npos)
      << eager.out;
  const RunResult lazy =
      run(tool() + " --salvage --lazy critpath " + corruptPipelinePath());
  ASSERT_EQ(lazy.exitCode, 0);
  EXPECT_EQ(eager.out, lazy.out);
}

TEST(ToolCli, SalvageQueryAnswersLikeTheOneShotAnalyze) {
  const RunResult oneShot =
      run(tool() + " --salvage analyze " + corruptTracePath());
  ASSERT_EQ(oneShot.exitCode, 0);
  const RunResult session = run("printf 'analyze\\n' | " + tool() +
                                " --salvage query " + corruptTracePath());
  ASSERT_EQ(session.exitCode, 0);
  EXPECT_EQ(session.out, oneShot.out);
}

TEST(ToolCli, SalvageProfileExcludesTheQuarantinedRankLikeQuery) {
  const RunResult oneShot =
      run(tool() + " --salvage profile " + corruptPipelinePath());
  ASSERT_EQ(oneShot.exitCode, 0);
  const RunResult session = run("printf 'profile' | " + tool() +
                                " --salvage query " + corruptPipelinePath());
  ASSERT_EQ(session.exitCode, 0);
  EXPECT_EQ(oneShot.out, session.out);
}

TEST(ToolCli, SalvageStatsServesATraceWithEveryRankQuarantined) {
  const std::string clean = uniqueName("tool_cli_one_rank");
  ASSERT_EQ(run(tool() + " generate scale " + clean + " 1 3").exitCode, 0);
  const std::string damaged = damageLastRank(clean, "tool_cli_one_rank_bad");
  // Nothing is left to analyze, but the raw trace still has statistics.
  const RunResult stats = run(tool() + " --salvage stats " + damaged);
  EXPECT_EQ(stats.exitCode, 0);
  EXPECT_NE(stats.out.find("processes:"), std::string::npos) << stats.out;
  EXPECT_EQ(run(tool() + " --salvage analyze " + damaged +
                " 2>/dev/null").exitCode,
            1);
  std::remove(clean.c_str());
  std::remove(damaged.c_str());
}

TEST(ToolCli, QueryCritpathTakesTheOneShotFormats) {
  for (const std::string format : {"text", "json", "csv"}) {
    const RunResult oneShot =
        run(tool() + " critpath " + pipelinePath() + " " + format);
    ASSERT_EQ(oneShot.exitCode, 0) << format;
    const RunResult session = run("printf 'critpath " + format + "\\n' | " +
                                  tool() + " query " + pipelinePath());
    ASSERT_EQ(session.exitCode, 0) << format;
    EXPECT_EQ(session.out, oneShot.out) << format;
  }
  EXPECT_EQ(run("printf 'critpath csv-iterations\\n' | " + tool() +
                " query " + pipelinePath() + " 2>/dev/null").exitCode,
            2);
}

TEST(ToolCli, UnknownCommandIsRejectedBeforeTheLoad) {
  const RunResult r =
      run(tool() + " frobnicate definitely_missing.pvt 2>&1 1>/dev/null");
  EXPECT_EQ(r.exitCode, 2);
  EXPECT_NE(r.out.find("unknown command"), std::string::npos)
      << "stderr: " << r.out;
}

TEST(ToolCli, OneShotArgumentsAreParsedBeforeTheLoad) {
  EXPECT_EQ(run(tool() + " critpath definitely_missing.pvt csv-iterations"
                " 2>/dev/null").exitCode,
            2);
}

// ---- the serve daemon and the connect client -----------------------------

TEST(ToolCli, ServeAndConnectExpectExactlyOneSocket) {
  EXPECT_EQ(run(tool() + " serve 2>/dev/null").exitCode, 2);
  EXPECT_EQ(run(tool() + " serve a.sock b.sock 2>/dev/null").exitCode, 2);
  EXPECT_EQ(run(tool() + " connect 2>/dev/null").exitCode, 2);
}

TEST(ToolCli, ConnectToAMissingSocketIsARuntimeError) {
  // One attempt: the default --retry 50 backs off for about 90 s.
  const RunResult r = run(tool() + " --retry 1 connect definitely_missing.sock"
                          " </dev/null 2>/dev/null");
  EXPECT_EQ(r.exitCode, 1);
}

/// The CI smoke scenario as a test: daemon in the background, a scripted
/// connect session loads a trace, analyzes it twice (the second answer
/// comes from the warm stage cache), reads the per-trace stats, and shuts
/// the daemon down.
TEST(ToolCli, ServeConnectSessionMatchesOneShotAnalyze) {
  const RunResult oneShot = run(tool() + " analyze " + tracePath());
  ASSERT_EQ(oneShot.exitCode, 0);

  const std::string sock = "tool_cli_serve.sock";
  const RunResult session = run(
      "rm -f " + sock + "; " +
      tool() + " serve " + sock + " >/dev/null 2>&1 & srv=$!; " +
      "printf 'load t " + tracePath() +
      "\\nanalyze t\\nanalyze t\\nstats t\\nshutdown\\n' | " +
      tool() + " connect " + sock + "; code=$?; wait $srv; exit $code");
  ASSERT_EQ(session.exitCode, 0) << session.out;
  EXPECT_NE(session.out.find("loaded t: "), std::string::npos);
  // The analysis crossed the wire byte-identically, twice.
  const std::size_t first = session.out.find(oneShot.out);
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(session.out.find(oneShot.out, first + 1), std::string::npos);
  // The repeated analyze hit the resident engine's warm stage cache.
  EXPECT_NE(session.out.find("cache: hits="), std::string::npos)
      << session.out;
  EXPECT_EQ(session.out.find("cache: hits=0 "), std::string::npos)
      << session.out;
}

TEST(ToolCli, ConnectServerErrorsMakeTheSessionExitNonzero) {
  const std::string sock = "tool_cli_serve_err.sock";
  const RunResult session = run(
      "rm -f " + sock + "; " +
      tool() + " serve " + sock + " >/dev/null 2>&1 & srv=$!; " +
      "printf 'analyze ghost\\nshutdown\\n' | " +
      tool() + " connect " + sock + " 2>&1 1>/dev/null;"
      " code=$?; wait $srv; exit $code");
  EXPECT_EQ(session.exitCode, 1);
  // The failure is a structured server error, not a dead connection.
  EXPECT_NE(session.out.find("server error:"), std::string::npos)
      << session.out;
}

// ---- durability: journals, SIGKILL recovery, SIGTERM drain ---------------

TEST(ToolCli, RecoverWithoutJournalDirIsAUsageError) {
  EXPECT_EQ(run(tool() + " --recover serve a.sock 2>/dev/null").exitCode, 2);
}

/// The crash-recovery smoke: a journaled daemon is fed a live stream and
/// SIGKILLed with no warning; a second daemon started with --recover must
/// answer `analyze` byte-identically to a daemon that never died.
TEST(ToolCli, SigkilledJournaledDaemonRecoversByteIdentical) {
  const std::string pid = std::to_string(getpid());
  const std::string dir = "tool_cli_journal_" + pid;
  const std::string sock = "tool_cli_kill_" + pid + ".sock";
  run("rm -rf " + dir + " " + sock);

  // Reference: journaled daemon, stream, analyze, clean shutdown.
  const RunResult reference = run(
      tool() + " serve " + sock + " --journal-dir " + dir +
      " >/dev/null 2>&1 & srv=$!; " +
      "printf 'open live cosmo_dynamics\\nappend live " + tracePath() +
      "\\nanalyze live\\nshutdown\\n' | " + tool() + " connect " + sock +
      "; code=$?; wait $srv; exit $code");
  ASSERT_EQ(reference.exitCode, 0) << reference.out;
  const std::size_t reportAt = reference.out.find("dominant");
  ASSERT_NE(reportAt, std::string::npos) << reference.out;

  // Crash run: same stream, then SIGKILL — no drain, no goodbye.
  run("rm -rf " + dir);
  const RunResult crashed = run(
      tool() + " serve " + sock + " --journal-dir " + dir +
      " >/dev/null 2>&1 & srv=$!; " +
      "printf 'open live cosmo_dynamics\\nappend live " + tracePath() +
      "\\n' | " + tool() + " connect " + sock + " >/dev/null; " +
      "kill -9 $srv; wait $srv 2>/dev/null; exit 0");
  ASSERT_EQ(crashed.exitCode, 0);

  // Recovery run: replay the journal, analyze, compare.
  const RunResult recovered = run(
      tool() + " serve " + sock + " --journal-dir " + dir +
      " --recover >/dev/null 2>&1 & srv=$!; " +
      "printf 'analyze live\\nshutdown\\n' | " + tool() + " connect " +
      sock + "; code=$?; wait $srv; exit $code");
  ASSERT_EQ(recovered.exitCode, 0) << recovered.out;
  // The recovered analyze equals the reference's analyze output, byte
  // for byte, from the report head to the end of the session.
  const std::size_t recoveredAt = recovered.out.find("dominant");
  ASSERT_NE(recoveredAt, std::string::npos) << recovered.out;
  EXPECT_EQ(recovered.out.substr(recoveredAt),
            reference.out.substr(reportAt));
  run("rm -rf " + dir + " " + sock);
}

TEST(ToolCli, SigtermDrainsTheDaemonGracefully) {
  const std::string pid = std::to_string(getpid());
  const std::string dir = "tool_cli_drain_" + pid;
  const std::string sock = "tool_cli_drain_" + pid + ".sock";
  run("rm -rf " + dir + " " + sock);

  const RunResult r = run(
      tool() + " serve " + sock + " --journal-dir " + dir +
      " > drain_out_" + pid + ".txt 2>&1 & srv=$!; " +
      "printf 'open live cosmo_dynamics\\nappend live " + tracePath() +
      "\\nquit\\n' | " + tool() + " connect " + sock + " >/dev/null; " +
      "kill -TERM $srv; wait $srv; code=$?; cat drain_out_" + pid +
      ".txt; rm -f drain_out_" + pid + ".txt; exit $code");
  EXPECT_EQ(r.exitCode, 0) << r.out;
  EXPECT_NE(r.out.find("draining (SIGTERM)"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("server stopped"), std::string::npos) << r.out;

  // The drain fsynced the journal: a recovery pass serves the trace.
  const RunResult recovered = run(
      tool() + " serve " + sock + " --journal-dir " + dir +
      " --recover >/dev/null 2>&1 & srv=$!; " +
      "printf 'stats live\\nshutdown\\n' | " + tool() + " connect " + sock +
      "; code=$?; wait $srv; exit $code");
  EXPECT_EQ(recovered.exitCode, 0) << recovered.out;
  EXPECT_NE(recovered.out.find("journal: on"), std::string::npos)
      << recovered.out;
  run("rm -rf " + dir + " " + sock);
}

TEST(ToolCli, ConnectRetryGivesUpAfterTheConfiguredAttempts) {
  // 2 attempts x 10 ms: fails fast instead of the default ~5 s.
  const RunResult r = run(tool() +
                          " connect --retry 2 --retry-delay-ms 10 "
                          "definitely_missing.sock </dev/null 2>/dev/null");
  EXPECT_EQ(r.exitCode, 1);
}

}  // namespace
}  // namespace perfvar
