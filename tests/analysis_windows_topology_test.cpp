#include <cmath>
#include <gtest/gtest.h>

#include "analysis/sos.hpp"
#include "analysis/variation.hpp"
#include "apps/paper_examples.hpp"
#include "trace/builder.hpp"
#include "util/error.hpp"
#include "vis/heatmap.hpp"

namespace perfvar::analysis {
namespace {

TEST(SosWindows, WindowsTileTheWholeTraceSpan) {
  const trace::Trace tr = apps::buildFigure3Trace();  // span [0, 14]
  const SosResult sos = analyzeSosWindows(tr, 5);
  EXPECT_EQ(sos.segmentFunction(), trace::kInvalidFunction);
  EXPECT_EQ(sos.maxSegmentsPerProcess(), 3u);  // ceil(14/5)
  for (trace::ProcessId p = 0; p < 3; ++p) {
    const auto& segs = sos.process(p);
    ASSERT_EQ(segs.size(), 3u);
    EXPECT_EQ(segs[0].segment.enter, 0u);
    EXPECT_EQ(segs[0].segment.leave, 5u);
    EXPECT_EQ(segs[2].segment.enter, 10u);
    EXPECT_EQ(segs[2].segment.leave, 14u);  // clipped at trace end
  }
}

TEST(SosWindows, SyncTimeIsClippedPerWindow) {
  // fig3 process 2: MPI frames [1,6), [8,9), [13,14). Window [0,5):
  // overlap of [1,6) is 4. Window [5,10): 1 (from [1,6)) + 1 ([8,9)).
  // Window [10,14): 1 (from [13,14)).
  const trace::Trace tr = apps::buildFigure3Trace();
  const SosResult sos = analyzeSosWindows(tr, 5);
  const auto& segs = sos.process(2);
  EXPECT_EQ(segs[0].syncTime, 4u);
  EXPECT_EQ(segs[0].sosTime, 1u);
  EXPECT_EQ(segs[1].syncTime, 2u);
  EXPECT_EQ(segs[1].sosTime, 3u);
  EXPECT_EQ(segs[2].syncTime, 1u);
  EXPECT_EQ(segs[2].sosTime, 3u);
}

TEST(SosWindows, TotalsMatchFunctionSegmentation) {
  // Summed sync time is segmentation-independent when windows cover the
  // same span the function segments do (fig3 segments cover [0,14]).
  const trace::Trace tr = apps::buildFigure3Trace();
  const auto fA = *tr.functions.find("a");
  const SosResult byFunction = analyzeSos(tr, fA);
  const SosResult byWindow = analyzeSosWindows(tr, 7);
  for (trace::ProcessId p = 0; p < 3; ++p) {
    trace::Timestamp syncF = 0;
    for (const auto& s : byFunction.process(p)) {
      syncF += s.syncTime;
    }
    trace::Timestamp syncW = 0;
    for (const auto& s : byWindow.process(p)) {
      syncW += s.syncTime;
    }
    EXPECT_EQ(syncF, syncW);
  }
}

TEST(SosWindows, MetricDeltasLandInTheirWindow) {
  trace::TraceBuilder b(1);
  const auto f = b.defineFunction("f");
  const auto m = b.defineMetric("ctr");
  b.enter(0, 0, f);
  b.metric(0, 3, m, 10.0);
  b.metric(0, 17, m, 25.0);
  b.leave(0, 20, f);
  const trace::Trace tr = b.finish();
  const SosResult sos = analyzeSosWindows(tr, 10);
  EXPECT_DOUBLE_EQ(sos.process(0)[0].metricDelta[m], 10.0);
  EXPECT_DOUBLE_EQ(sos.process(0)[1].metricDelta[m], 15.0);
}

TEST(SosWindows, VariationAnalysisRunsOnWindows) {
  const trace::Trace tr = apps::buildFigure3Trace();
  const SosResult sos = analyzeSosWindows(tr, 5);
  const VariationReport report = analyzeVariation(sos);
  EXPECT_EQ(report.iterations.size(), 3u);
  const std::string text = formatVariationReport(sos, report);
  EXPECT_NE(text.find("(fixed time windows)"), std::string::npos);
}

TEST(SosWindows, RejectsDegenerateInputs) {
  const trace::Trace tr = apps::buildFigure3Trace();
  EXPECT_THROW(analyzeSosWindows(tr, 0), Error);
  trace::TraceBuilder b(1);
  const auto f = b.defineFunction("f");
  b.enter(0, 5, f);
  b.leave(0, 5, f);
  const trace::Trace degenerate = b.finish();
  EXPECT_THROW(analyzeSosWindows(degenerate, 10), Error);  // zero span
}

// --- topology view -------------------------------------------------------------

TEST(Topology, ImageLaysRanksOutOnTheGrid) {
  std::vector<double> values(12, 0.0);
  values[1 * 4 + 2] = 1.0;  // rank 6 on a 4x3 grid -> cell (x=2, y=1)
  vis::HeatmapOptions opts;
  opts.legend = false;
  opts.robustScale = false;
  const std::string doc = vis::renderTopologySvg(values, 4, 3, opts).finalize();
  // 225 x 166.67 cells from (4, 4), drawn with 0.3 px overlap. The hot
  // cell (x=2, y=1) is the scale's red end; the corner cell (0, 0) is its
  // blue end; no other cell is red.
  const std::string hot = vis::ColorMap::coldHot().at(1.0).hex();
  const std::string cold = vis::ColorMap::coldHot().at(0.0).hex();
  EXPECT_NE(doc.find("<rect x=\"454.00\" y=\"170.67\" width=\"225.30\" "
                     "height=\"166.97\" fill=\"" + hot + "\"/>"),
            std::string::npos);
  EXPECT_NE(doc.find("<rect x=\"4.00\" y=\"4.00\" width=\"225.30\" "
                     "height=\"166.97\" fill=\"" + cold + "\"/>"),
            std::string::npos);
  EXPECT_EQ(doc.find("fill=\"" + hot + "\""),
            doc.rfind("fill=\"" + hot + "\""));
}

TEST(Topology, SvgLabelsRanksOnSmallGrids) {
  std::vector<double> values(9, 1.0);
  values[4] = 5.0;
  vis::HeatmapOptions opts;
  const std::string doc =
      vis::renderTopologySvg(values, 3, 3, opts).finalize();
  EXPECT_NE(doc.find(">4</text>"), std::string::npos);
  EXPECT_NE(doc.find(">8</text>"), std::string::npos);
}

TEST(Topology, RejectsMismatchedSizes) {
  const std::vector<double> values(10, 0.0);
  EXPECT_THROW(vis::renderTopologySvg(values, 4, 3, {}), Error);
}

}  // namespace
}  // namespace perfvar::analysis
