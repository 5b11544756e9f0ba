#include <gtest/gtest.h>

#include <sstream>

#include "analysis/export.hpp"
#include "analysis/patterns.hpp"
#include "analysis/pipeline.hpp"
#include "apps/paper_examples.hpp"
#include "sim/program.hpp"
#include "sim/simulator.hpp"
#include "trace/builder.hpp"

namespace perfvar::analysis {
namespace {

// --- wait-state patterns --------------------------------------------------------

trace::Trace collectiveImbalanceTrace() {
  // 3 ranks, 2 barrier rounds. Rank 2 is slow: it arrives last, so ranks
  // 0 and 1 accumulate Wait-at-Collective severity.
  trace::TraceBuilder b(3);
  const auto fWork = b.defineFunction("work", "APP");
  const auto fBarrier =
      b.defineFunction("MPI_Barrier", "MPI", trace::Paradigm::MPI);
  for (int round = 0; round < 2; ++round) {
    const trace::Timestamp base = static_cast<trace::Timestamp>(round) * 1000;
    const trace::Timestamp arrive[3] = {base + 100, base + 200, base + 500};
    for (trace::ProcessId p = 0; p < 3; ++p) {
      b.enter(p, base, fWork);
      b.leave(p, arrive[p], fWork);
      b.enter(p, arrive[p], fBarrier);
      b.leave(p, base + 510, fBarrier);
    }
  }
  return b.finish();
}

TEST(Patterns, WaitAtCollectiveBlamesTheVictims) {
  const trace::Trace tr = collectiveImbalanceTrace();
  const PatternReport report = findWaitStates(tr);
  const auto idx =
      static_cast<std::size_t>(PatternKind::WaitAtCollective);
  // Rank 0 waits 400 per round, rank 1 waits 300, rank 2 (the culprit)
  // waits 0. Resolution is ns -> severities in seconds.
  EXPECT_NEAR(report.severityByProcess[idx][0], 800e-9, 1e-12);
  EXPECT_NEAR(report.severityByProcess[idx][1], 600e-9, 1e-12);
  EXPECT_NEAR(report.severityByProcess[idx][2], 0.0, 1e-15);
  // The worst VICTIM is rank 0 - not the culprit rank 2. This is the
  // structural blind spot the paper's SOS analysis removes.
  EXPECT_EQ(report.worstVictim(), 0u);
  EXPECT_NEAR(report.totalSeverity, 1400e-9, 1e-12);
}

TEST(Patterns, LateSenderMeasuresRecvBlocking) {
  sim::ProgramBuilder b(2);
  const auto f = b.function("work");
  b.compute(0, f, 0.3);  // sender busy for 0.3 s
  b.send(0, 1, 1, 1024);
  b.recv(1, 0, 1);  // receiver posts at t = 0
  const trace::Trace tr = sim::simulate(b.finish(), sim::SimOptions{});
  const PatternReport report = findWaitStates(tr);
  const auto idx = static_cast<std::size_t>(PatternKind::LateSender);
  EXPECT_NEAR(report.severityByProcess[idx][1], 0.3, 0.01);
  EXPECT_NEAR(report.severityByProcess[idx][0], 0.0, 1e-12);
  ASSERT_FALSE(report.instances.empty());
  EXPECT_EQ(report.instances.front().kind, PatternKind::LateSender);
  EXPECT_EQ(report.instances.front().process, 1u);
}

TEST(Patterns, InstancesAreRankedBySeverity) {
  const trace::Trace tr = collectiveImbalanceTrace();
  const PatternReport report = findWaitStates(tr);
  for (std::size_t i = 1; i < report.instances.size(); ++i) {
    EXPECT_GE(report.instances[i - 1].severitySeconds,
              report.instances[i].severitySeconds);
  }
}

TEST(Patterns, BalancedRunHasNoSeverity) {
  trace::TraceBuilder b(2);
  const auto fWork = b.defineFunction("work", "APP");
  const auto fBarrier =
      b.defineFunction("MPI_Barrier", "MPI", trace::Paradigm::MPI);
  for (trace::ProcessId p = 0; p < 2; ++p) {
    b.enter(p, 0, fWork);
    b.leave(p, 100, fWork);
    b.enter(p, 100, fBarrier);
    b.leave(p, 110, fBarrier);
  }
  const trace::Trace tr = b.finish();
  const PatternReport report = findWaitStates(tr);
  EXPECT_EQ(report.totalSeverity, 0.0);
  EXPECT_TRUE(report.instances.empty());
}

TEST(Patterns, FormatListsPatternsAndSeverity) {
  const trace::Trace tr = collectiveImbalanceTrace();
  PatternOptions opts;
  opts.minListedSeverity = 1e-12;  // the toy trace is nanoseconds long
  const PatternReport report = findWaitStates(tr, opts);
  const std::string text = formatPatternReport(tr, report);
  EXPECT_NE(text.find("Wait at Collective"), std::string::npos);
  EXPECT_NE(text.find("Rank 0"), std::string::npos);
}

TEST(Patterns, OnWaitHiddenImbalanceSosFindsCulpritPatternsFindVictims) {
  const trace::Trace tr = collectiveImbalanceTrace();
  const PatternReport patterns = findWaitStates(tr);
  const AnalysisResult sos = analyzeTrace(tr);
  EXPECT_EQ(sos.variation.slowestProcess(), 2u);  // the actual culprit
  EXPECT_EQ(patterns.worstVictim(), 0u);          // the waiting rank
}

// --- export -----------------------------------------------------------------------

const trace::Trace& figureTrace() {
  // Kept alive for the whole test binary: AnalysisResult references the
  // analyzed trace (documented in pipeline.hpp).
  static const trace::Trace tr = apps::buildFigure3Trace();
  return tr;
}

AnalysisResult figureResult() {
  return analyzeTrace(figureTrace());
}

TEST(Export, SosMatrixCsvShape) {
  const AnalysisResult result = figureResult();
  const std::string csv =
      exportReportString(figureTrace(), result, ExportFormat::Csv);
  std::istringstream is(csv);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "process,iter0,iter1,iter2");
  std::size_t rows = 0;
  while (std::getline(is, line)) {
    ++rows;
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 3);
  }
  EXPECT_EQ(rows, 3u);
  EXPECT_NE(csv.find("Rank 0,5,2,1"), std::string::npos);
}

TEST(Export, IterationStatsCsvHasHeaderAndRows) {
  const AnalysisResult result = figureResult();
  std::ostringstream os;
  exportReport(figureTrace(), result, ExportFormat::CsvIterations, os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.rfind("iteration,processes,minSos", 0), 0u);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);  // header + 3
}

TEST(Export, HotspotsCsvQuotesNames) {
  const AnalysisResult result = figureResult();
  std::ostringstream os;
  exportReport(figureTrace(), result, ExportFormat::CsvHotspots, os);
  EXPECT_EQ(os.str().rfind("process,processName", 0), 0u);
}

TEST(Export, JsonIsBalancedAndCarriesKeyFacts) {
  const AnalysisResult result = figureResult();
  const std::string json =
      exportReportString(figureTrace(), result, ExportFormat::Json);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"dominant\""), std::string::npos);
  EXPECT_NE(json.find("\"function\":\"a\""), std::string::npos);
  EXPECT_NE(json.find("\"hotspots\""), std::string::npos);
  EXPECT_NE(json.find("\"trend\""), std::string::npos);
  // No trailing commas (the classic hand-rolled-JSON bug).
  EXPECT_EQ(json.find(",}"), std::string::npos);
  EXPECT_EQ(json.find(",]"), std::string::npos);
}

TEST(Export, JsonEscapesSpecialCharacters) {
  trace::TraceBuilder b(1);
  const auto f = b.defineFunction("solve \"fast\"\npath\\x");
  for (int i = 0; i < 3; ++i) {
    b.enter(0, static_cast<trace::Timestamp>(i) * 10, f);
    b.leave(0, static_cast<trace::Timestamp>(i) * 10 + 5, f);
  }
  const trace::Trace tr = b.finish();
  const AnalysisResult result = analyzeTrace(tr);
  const std::string json = exportReportString(tr, result, ExportFormat::Json);
  EXPECT_NE(json.find("\\\"fast\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\\\x"), std::string::npos);
}

TEST(Export, TextFormatMatchesFormatAnalysis) {
  const AnalysisResult result = figureResult();
  EXPECT_EQ(exportReportString(figureTrace(), result, ExportFormat::Text),
            formatAnalysis(figureTrace(), result));
}

// The per-format writers (now internal) are exactly what exportReport
// dispatches to — the format-selection layer adds nothing.
TEST(Export, PerFormatWritersMatchExportReport) {
  const AnalysisResult result = figureResult();
  const trace::Trace& tr = figureTrace();

  std::ostringstream direct;
  detail::writeSosMatrixCsv(*result.sos, direct);
  detail::writeIterationStatsCsv(result.variation, direct);
  detail::writeHotspotsCsv(tr, result.variation, direct);
  detail::writeAnalysisJson(tr, result.selection, *result.sos,
                            result.variation, direct);

  std::ostringstream dispatched;
  exportReport(tr, result, ExportFormat::Csv, dispatched);
  exportReport(tr, result, ExportFormat::CsvIterations, dispatched);
  exportReport(tr, result, ExportFormat::CsvHotspots, dispatched);
  exportReport(tr, result, ExportFormat::Json, dispatched);

  EXPECT_EQ(direct.str(), dispatched.str());
}

}  // namespace
}  // namespace perfvar::analysis
