#include "report.hpp"

#include "analysis/depgraph.hpp"
#include "analysis/export.hpp"
#include "analysis/pipeline.hpp"
#include "lint/lint.hpp"
#include "spans.hpp"
#include "trace/view.hpp"
#include "vis/heatmap.hpp"

namespace perfvar::bench {

ReportOutput runReport(const trace::TraceView& view, std::size_t threads) {
  analysis::PipelineOptions pipelineOptions;
  pipelineOptions.threads = threads;
  const analysis::AnalysisResult result = inSpan("analysis.pipeline", [&] {
    return analysis::analyzeTrace(view, pipelineOptions);
  });
  lint::LintOptions lintOptions;
  lintOptions.threads = threads;
  const lint::LintReport lintReport =
      inSpan("lint.total", [&] { return lint::lintTrace(view, lintOptions); });
  analysis::DepAnalysisOptions depOptions;
  depOptions.threads = threads;
  const analysis::DepAnalysis deps = inSpan("analysis.dependencies", [&] {
    return analysis::analyzeDependencies(view, depOptions);
  });

  ReportOutput out;
  out.slowestProcess = result.variation.slowestProcess();
  out.text += inSpan("analysis.export_text", [&] {
    return analysis::exportReportString(view, result,
                                        analysis::ExportFormat::Text);
  });
  out.text +=
      inSpan("lint.format", [&] { return lint::formatLintReport(lintReport); });
  out.text += inSpan("analysis.dep_format", [&] {
    return analysis::formatDepAnalysis(view, deps);
  });
  const vis::Matrix sos = inSpan("analysis.sos_matrix", [&] {
    return result.sos->sosMatrixSeconds();
  });
  out.text += inSpan("vis.heatmap_svg", [&] {
    return vis::renderHeatmapSvg(sos, vis::HeatmapOptions{}).finalize();
  });
  return out;
}

}  // namespace perfvar::bench
