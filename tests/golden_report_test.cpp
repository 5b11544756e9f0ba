/// Golden-file regression tests: formatAnalysis() output for three small
/// canonical traces is serialized under tests/golden/ and diffed here, so
/// a refactor cannot silently change report content. The parallel pipeline
/// must reproduce the same golden reports (its output is bit-identical to
/// the serial one by contract).
///
/// To regenerate after an *intentional* report change:
///   PERFVAR_UPDATE_GOLDEN=1 ./golden_report_test
/// then review the diff of tests/golden/ like any other code change.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/depgraph.hpp"
#include "analysis/export.hpp"
#include "analysis/pipeline.hpp"
#include "apps/cosmo_specs.hpp"
#include "apps/desync_stencil.hpp"
#include "apps/paper_examples.hpp"
#include "apps/pipeline_chain.hpp"
#include "sim/simulator.hpp"
#include "vis/heatmap.hpp"
#include "vis/timeline.hpp"

#ifndef PERFVAR_GOLDEN_DIR
#error "PERFVAR_GOLDEN_DIR must point at tests/golden"
#endif

namespace perfvar {
namespace {

std::string goldenPath(const std::string& name) {
  return std::string(PERFVAR_GOLDEN_DIR) + "/" + name;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Diff `actual` against the golden file; with PERFVAR_UPDATE_GOLDEN set,
/// rewrite the file instead (the test is reported as skipped so an update
/// run is conspicuous in a test log).
void checkGolden(const std::string& name, const std::string& actual) {
  const std::string path = goldenPath(name);
  if (std::getenv("PERFVAR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "updated " << path;
  }
  const std::string expected = readFile(path);
  ASSERT_FALSE(expected.empty())
      << "missing golden file " << path
      << " (regenerate with PERFVAR_UPDATE_GOLDEN=1)";
  EXPECT_EQ(expected, actual)
      << "report for '" << name << "' changed; if intentional, regenerate "
      << "with PERFVAR_UPDATE_GOLDEN=1 and review the diff";
}

/// The three canonical traces: the paper's Figure 2 and Figure 3 examples
/// (integer tick arithmetic, resolution 1) and a small simulated
/// COSMO-SPECS run (deterministic simulator, fixed seed).
trace::Trace smallCosmo() {
  apps::CosmoSpecsConfig cfg;
  cfg.gridX = 4;
  cfg.gridY = 4;
  cfg.timesteps = 12;
  const auto scenario = apps::buildCosmoSpecs(cfg);
  return sim::simulate(scenario.program, scenario.simOptions);
}

std::string reportFor(const trace::Trace& tr) {
  const analysis::AnalysisResult result = analysis::analyzeTrace(tr);
  return analysis::formatAnalysis(tr, result);
}

TEST(GoldenReport, Figure2Trace) {
  const trace::Trace tr = apps::buildFigure2Trace();
  checkGolden("figure2_report.txt", reportFor(tr));
}

TEST(GoldenReport, Figure3Trace) {
  const trace::Trace tr = apps::buildFigure3Trace();
  checkGolden("figure3_report.txt", reportFor(tr));
}

TEST(GoldenReport, SmallCosmoSpecsTrace) {
  const trace::Trace tr = smallCosmo();
  checkGolden("cosmo_4x4_report.txt", reportFor(tr));
}

// The dependency reports of the two planted ground-truth workloads: a
// refactor of the graph builder or a detector cannot silently change the
// diagnosed rank, shares or wave shape.
TEST(GoldenReport, PipelineCritpathReport) {
  const trace::Trace tr = apps::buildPipelineTrace({});
  checkGolden("pipeline_critpath.txt",
              analysis::formatDepAnalysis(tr, analysis::analyzeDependencies(tr)));
}

TEST(GoldenReport, StencilCritpathReport) {
  const trace::Trace tr = apps::buildStencilTrace({});
  checkGolden("stencil_critpath.txt",
              analysis::formatDepAnalysis(tr, analysis::analyzeDependencies(tr)));
}

// The dependency JSON export of the small COSMO-SPECS trace carries every
// match-derived number (pair and unmatched counts, the critical path's
// remote edges and the detectors built on them), so it pins the matcher
// on a trace where every message channel is used.
TEST(GoldenReport, SmallCosmoDependencyJson) {
  const trace::Trace tr = smallCosmo();
  std::ostringstream json;
  analysis::exportDepAnalysis(tr, analysis::analyzeDependencies(tr),
                              analysis::ExportFormat::Json, json);
  checkGolden("cosmo_4x4_deps.json", json.str());
}

// SVG bytes: the paper's SOS heatmap of the small COSMO-SPECS trace, and
// a timeline with message lines (fractional coordinates, hex colors,
// escaped title and legend text) so the number formatting of every
// SvgDocument element is pinned.
TEST(GoldenReport, SmallCosmoHeatmapSvg) {
  const trace::Trace tr = smallCosmo();
  const analysis::AnalysisResult result = analysis::analyzeTrace(tr);
  checkGolden("cosmo_4x4_heatmap.svg",
              vis::renderHeatmapSvg(result.sos->sosMatrixSeconds(),
                                    vis::HeatmapOptions{})
                  .finalize());
}

TEST(GoldenReport, SmallCosmoTimelineSvg) {
  const trace::Trace tr = smallCosmo();
  vis::TimelineOptions opts;
  opts.title = "cosmo <4x4> & messages";
  opts.bins = 97;
  checkGolden("cosmo_4x4_timeline.svg",
              vis::renderTimelineSvg(tr, vis::FunctionColors::standard(tr),
                                     opts)
                  .finalize());
}

// Machine-readable exports of the small COSMO-SPECS analysis: the SOS
// matrix, per-iteration and hotspot CSVs (%.12g numbers) and the JSON
// document (%.17g), so the number formatting of every export writer is
// pinned, at one thread and at four.
TEST(GoldenReport, SmallCosmoExports) {
  const trace::Trace tr = smallCosmo();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    analysis::PipelineOptions opts;
    opts.threads = threads;
    const analysis::AnalysisResult result = analysis::analyzeTrace(tr, opts);
    const auto exported = [&](analysis::ExportFormat format) {
      return analysis::exportReportString(tr, result, format);
    };
    checkGolden("cosmo_4x4_export.csv", exported(analysis::ExportFormat::Csv));
    checkGolden("cosmo_4x4_iterations.csv",
                exported(analysis::ExportFormat::CsvIterations));
    checkGolden("cosmo_4x4_hotspots.csv",
                exported(analysis::ExportFormat::CsvHotspots));
    checkGolden("cosmo_4x4_export.json",
                exported(analysis::ExportFormat::Json));
  }
}

TEST(GoldenReport, ParallelCritpathReproducesTheGoldenReports) {
  analysis::DepAnalysisOptions opts;
  opts.threads = 4;
  const trace::Trace pipeline = apps::buildPipelineTrace({});
  const trace::Trace stencil = apps::buildStencilTrace({});
  checkGolden("pipeline_critpath.txt",
              analysis::formatDepAnalysis(
                  pipeline, analysis::analyzeDependencies(pipeline, opts)));
  checkGolden("stencil_critpath.txt",
              analysis::formatDepAnalysis(
                  stencil, analysis::analyzeDependencies(stencil, opts)));
}

TEST(GoldenReport, ParallelPipelineReproducesTheGoldenReports) {
  analysis::PipelineOptions opts;
  opts.threads = 4;
  const trace::Trace fig2 = apps::buildFigure2Trace();
  const trace::Trace fig3 = apps::buildFigure3Trace();
  const trace::Trace cosmo = smallCosmo();
  checkGolden("figure2_report.txt",
              analysis::formatAnalysis(fig2, analysis::analyzeTrace(fig2, opts)));
  checkGolden("figure3_report.txt",
              analysis::formatAnalysis(fig3, analysis::analyzeTrace(fig3, opts)));
  checkGolden("cosmo_4x4_report.txt",
              analysis::formatAnalysis(cosmo,
                                       analysis::analyzeTrace(cosmo, opts)));
}

}  // namespace
}  // namespace perfvar
