#include <cmath>
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>

#include "analysis/overlay.hpp"
#include "analysis/pipeline.hpp"
#include "apps/paper_examples.hpp"
#include "trace/binary_io.hpp"
#include "trace/builder.hpp"
#include "trace/fault_injection.hpp"
#include "util/error.hpp"
#include "vis/color.hpp"
#include "vis/heatmap.hpp"
#include "vis/svg.hpp"
#include "vis/timeline.hpp"

namespace perfvar::vis {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// One filled `<rect>` of an SVG document.
struct SvgRect {
  double x = 0.0;
  double y = 0.0;
  double width = 0.0;
  double height = 0.0;
  std::string fill;  ///< "#rrggbb"
};

/// The filled rects of `doc` in drawing order (outlines are skipped).
std::vector<SvgRect> filledRects(const std::string& doc) {
  std::vector<SvgRect> rects;
  std::istringstream lines(doc);
  std::string line;
  while (std::getline(lines, line)) {
    SvgRect r;
    char hex[7] = {};
    if (std::sscanf(line.c_str(),
                    "<rect x=\"%lf\" y=\"%lf\" width=\"%lf\" height=\"%lf\" "
                    "fill=\"#%6[0-9a-f]\"",
                    &r.x, &r.y, &r.width, &r.height, hex) == 5) {
      r.fill = std::string("#") + hex;
      rects.push_back(r);
    }
  }
  return rects;
}

/// Fill of the rect whose top-left corner is (x, y), as printed (two
/// decimals); a failure and black if there is none.
Rgb rectFillAt(const std::string& doc, double x, double y) {
  for (const SvgRect& r : filledRects(doc)) {
    if (std::abs(r.x - x) < 0.006 && std::abs(r.y - y) < 0.006) {
      const auto channel = [&](std::size_t i) {
        return static_cast<std::uint8_t>(
            std::stoi(r.fill.substr(1 + 2 * i, 2), nullptr, 16));
      };
      return Rgb{channel(0), channel(1), channel(2)};
    }
  }
  ADD_FAILURE() << "no rect at (" << x << ", " << y << ")";
  return Rgb{};
}

/// The rects of plot row `row` (top edge y0 + row * rowHeight).
std::vector<SvgRect> rowRects(const std::vector<SvgRect>& rects, double y0,
                              double rowHeight, std::size_t row) {
  std::vector<SvgRect> out;
  const double y = y0 + rowHeight * static_cast<double>(row);
  for (const SvgRect& r : rects) {
    if (std::abs(r.y - y) < 0.006) {
      out.push_back(r);
    }
  }
  return out;
}

// --- color -----------------------------------------------------------------

TEST(Color, HexFormatting) {
  EXPECT_EQ((Rgb{255, 0, 128}.hex()), "#ff0080");
  EXPECT_EQ((Rgb{0, 0, 0}.hex()), "#000000");
}

TEST(Color, LerpEndpointsAndMidpoint) {
  const Rgb a{0, 0, 0};
  const Rgb b{100, 200, 50};
  EXPECT_EQ(Rgb::lerp(a, b, 0.0), a);
  EXPECT_EQ(Rgb::lerp(a, b, 1.0), b);
  const Rgb mid = Rgb::lerp(a, b, 0.5);
  EXPECT_EQ(mid.r, 50);
  EXPECT_EQ(mid.g, 100);
  EXPECT_EQ(mid.b, 25);
}

TEST(Color, ColdHotEndpointsAreBlueAndRed) {
  const ColorMap map = ColorMap::coldHot();
  const Rgb cold = map.at(0.0);
  const Rgb hot = map.at(1.0);
  EXPECT_GT(cold.b, cold.r);  // blue end
  EXPECT_GT(hot.r, hot.b);    // red end
}

TEST(Color, MapClampsAndHandlesNaN) {
  const ColorMap map = ColorMap::coldHot();
  EXPECT_EQ(map.at(-5.0), map.at(0.0));
  EXPECT_EQ(map.at(5.0), map.at(1.0));
  EXPECT_EQ(map.at(kNaN).hex(), "#dcdcdc");
}

TEST(Color, ValueScaleLinear) {
  const ValueScale s = ValueScale::linear(10.0, 20.0);
  EXPECT_DOUBLE_EQ(s.normalize(10.0), 0.0);
  EXPECT_DOUBLE_EQ(s.normalize(20.0), 1.0);
  EXPECT_DOUBLE_EQ(s.normalize(15.0), 0.5);
  EXPECT_DOUBLE_EQ(s.normalize(0.0), 0.0);   // clamped
  EXPECT_DOUBLE_EQ(s.normalize(99.0), 1.0);  // clamped
  EXPECT_TRUE(std::isnan(s.normalize(kNaN)));
}

TEST(Color, ValueScaleDegenerateRange) {
  const ValueScale s = ValueScale::linear(5.0, 5.0);
  EXPECT_DOUBLE_EQ(s.normalize(5.0), 0.5);
}

TEST(Color, RobustScaleIgnoresExtremes) {
  std::vector<double> values(100, 1.0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 1.0 + 0.01 * static_cast<double>(i);
  }
  values.push_back(1000.0);  // one extreme outlier
  const ValueScale robust = ValueScale::robust(values);
  EXPECT_LT(robust.high(), 10.0);  // outlier clipped
  const ValueScale naive = ValueScale::fromData(values);
  EXPECT_DOUBLE_EQ(naive.high(), 1000.0);
}

TEST(Color, FromDataSkipsNaN) {
  const std::vector<double> values = {kNaN, 2.0, 8.0, kNaN};
  const ValueScale s = ValueScale::fromData(values);
  EXPECT_DOUBLE_EQ(s.low(), 2.0);
  EXPECT_DOUBLE_EQ(s.high(), 8.0);
}

// --- svg ----------------------------------------------------------------------

TEST(Svg, ProducesWellFormedDocument) {
  SvgDocument svg(200, 100);
  svg.rect(10, 10, 50, 20, Rgb{255, 0, 0});
  svg.line(0, 0, 200, 100, Rgb{0, 0, 0}, 2.0);
  svg.text(5, 95, "hello <world> & \"friends\"", Rgb{0, 0, 255});
  const std::string doc = svg.finalize();
  EXPECT_NE(doc.find("<svg"), std::string::npos);
  EXPECT_NE(doc.find("</svg>"), std::string::npos);
  EXPECT_NE(doc.find("#ff0000"), std::string::npos);
  EXPECT_NE(doc.find("&lt;world&gt; &amp; &quot;friends&quot;"),
            std::string::npos);
  EXPECT_EQ(doc.find("<world>"), std::string::npos);
}

// Every number of an SVG element prints as a `fixed`/`precision(2)`
// stream does (printf "%.2f"): round-half-even on the exact binary value,
// signed zero, huge magnitudes in full, and nan/inf spelled as printf
// spells them.
TEST(Svg, NumbersFormatLikeAFixedTwoDigitStream) {
  const double values[] = {-0.0,
                           0.0,
                           0.005,
                           0.015,
                           0.125,
                           2.675,
                           -1234.565,
                           1e15,
                           1e300,
                           -1e300,
                           std::numeric_limits<double>::denorm_min(),
                           -1e-310,
                           kNaN,
                           -kNaN,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  const Rgb fill{18, 52, 171};
  for (const double v : values) {
    SvgDocument svg(1, 1);
    svg.rect(v, -v, v, v, fill);
    std::ostringstream expected;
    expected.setf(std::ios::fixed);
    expected.precision(2);
    expected << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
             << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << 1.0
             << "\" height=\"" << 1.0 << "\" viewBox=\"0 0 " << 1.0 << ' '
             << 1.0 << "\">\n"
             << "<rect x=\"" << v << "\" y=\"" << -v << "\" width=\"" << v
             << "\" height=\"" << v << "\" fill=\"" << fill.hex() << "\"/>\n"
             << "</svg>\n";
    EXPECT_EQ(svg.finalize(), expected.str()) << "value " << v;
  }
}

TEST(Svg, EscapeCoversSpecials) {
  EXPECT_EQ(SvgDocument::escape("a<b>&\"c"), "a&lt;b&gt;&amp;&quot;c");
}

// --- heatmap --------------------------------------------------------------------

TEST(Heatmap, HotCellIsRedderThanColdCell) {
  const Matrix m = {{0.0, 1.0}};
  HeatmapOptions opts;
  opts.legend = false;
  opts.robustScale = false;
  const std::string doc = renderHeatmapSvg(m, opts).finalize();
  // Two 450-wide cells from (4, 4): cold left, hot right.
  const Rgb cold = rectFillAt(doc, 4.0, 4.0);
  const Rgb hot = rectFillAt(doc, 454.0, 4.0);
  EXPECT_GT(cold.b, cold.r);
  EXPECT_GT(hot.r, hot.b);
}

TEST(Heatmap, ExplicitScaleOverridesData) {
  const Matrix m = {{5.0}};
  HeatmapOptions opts;
  opts.scaleLow = 0.0;
  opts.scaleHigh = 10.0;
  const ValueScale s = heatmapScale(m, opts);
  EXPECT_DOUBLE_EQ(s.normalize(5.0), 0.5);
}

TEST(Heatmap, AsciiRenderHasRowsAndScale) {
  const Matrix m = {{0.0, 1.0, 2.0}, {2.0, 1.0, 0.0}};
  HeatmapOptions opts;
  opts.title = "demo";
  opts.rowLabels = {"p0", "p1"};
  const std::string text = renderHeatmapAscii(m, opts, 10);
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("p0"), std::string::npos);
  EXPECT_NE(text.find("scale:"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(Heatmap, SvgRenderHandlesNaNAndRagged) {
  const Matrix m = {{1.0, kNaN, 3.0}, {2.0}};
  HeatmapOptions opts;
  const std::string doc = renderHeatmapSvg(m, opts).finalize();
  EXPECT_NE(doc.find("<svg"), std::string::npos);
  // Missing color (light gray) appears for the NaN / padded cells.
  EXPECT_NE(doc.find("#dcdcdc"), std::string::npos);
}

TEST(Heatmap, EmptyMatrixRejected) {
  EXPECT_THROW(renderHeatmapSvg({}, HeatmapOptions{}), Error);
}

// --- timeline ---------------------------------------------------------------------

TEST(Timeline, BinsReflectDominantStackTop) {
  const trace::Trace tr = apps::buildFigure3Trace();
  TimelineOptions opts;
  opts.bins = 14;  // trace spans t = 0..14, one bin per tick
  const auto bins = timelineBins(tr, opts);
  ASSERT_EQ(bins.size(), 3u);
  const auto fCalc = *tr.functions.find("calc");
  const auto fMpi = *tr.functions.find("MPI");
  // Process 0 computes for 5 ticks, then waits 1 in iteration 0.
  EXPECT_EQ(bins[0][0], fCalc);
  EXPECT_EQ(bins[0][4], fCalc);
  EXPECT_EQ(bins[0][5], fMpi);
  // Process 2 computes only the first tick of iteration 0.
  EXPECT_EQ(bins[2][0], fCalc);
  EXPECT_EQ(bins[2][2], fMpi);
}

TEST(Timeline, WindowRestrictsRendering) {
  const trace::Trace tr = apps::buildFigure3Trace();
  TimelineOptions opts;
  opts.bins = 3;
  opts.windowStart = 6;  // iteration 1 only
  opts.windowEnd = 9;
  const auto bins = timelineBins(tr, opts);
  const auto fCalc = *tr.functions.find("calc");
  EXPECT_EQ(bins[0][0], fCalc);  // all processes compute 2 of 3 ticks
}

TEST(Timeline, FunctionColorsMpiIsRed) {
  const trace::Trace tr = apps::buildFigure3Trace();
  const FunctionColors colors = FunctionColors::standard(tr);
  const Rgb mpi = colors.color(*tr.functions.find("MPI"));
  EXPECT_GT(mpi.r, 150);
  EXPECT_LT(mpi.b, 100);
  // Distinct application functions get distinct colors.
  EXPECT_NE(colors.color(*tr.functions.find("calc")),
            colors.color(*tr.functions.find("a")));
  EXPECT_FALSE(colors.legend().empty());
}

TEST(Timeline, ImageAndSvgRender) {
  const trace::Trace tr = apps::buildFigure3Trace();
  const FunctionColors colors = FunctionColors::standard(tr);
  TimelineOptions opts;
  opts.bins = 50;
  opts.title = "fig3";
  const std::string doc = renderTimelineSvg(tr, colors, opts).finalize();
  EXPECT_EQ(doc.rfind("<?xml", 0), 0u);
  EXPECT_NE(doc.find(">fig3</text>"), std::string::npos);
  // 50 bins over 900 px from x = 4: every row starts with a rect at the
  // left edge, and the first one (process 0 computing) is calc's color.
  EXPECT_EQ(rectFillAt(doc, 4.0, 28.0),
            colors.color(*tr.functions.find("calc")));
  EXPECT_NE(doc.find(colors.color(*tr.functions.find("MPI")).hex()),
            std::string::npos);
  EXPECT_EQ(doc.substr(doc.size() - 7), "</svg>\n");
}

TEST(Timeline, ParadigmShareSumsToOneWhereBusy) {
  const trace::Trace tr = apps::buildFigure3Trace();
  const auto shares = paradigmShareOverTime(tr, 7);
  for (std::size_t bin = 0; bin < 7; ++bin) {
    double total = 0.0;
    for (const auto& series : shares) {
      total += series[bin];
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << "bin " << bin;
  }
  // MPI share in the first bin (t = 0..2): process 2 already waits.
  const auto& mpi = shares[static_cast<std::size_t>(trace::Paradigm::MPI)];
  EXPECT_GT(mpi[2], mpi[0]);
}

TEST(Timeline, MessageLinesAppearInSvg) {
  trace::TraceBuilder b(2);
  const auto f = b.defineFunction("MPI_Send", "MPI", trace::Paradigm::MPI);
  const auto g = b.defineFunction("MPI_Recv", "MPI", trace::Paradigm::MPI);
  b.enter(0, 0, f);
  b.mpiSend(0, 0, 1, 5, 100);
  b.leave(0, 10, f);
  b.enter(1, 0, g);
  b.mpiRecv(1, 50, 0, 5, 100);
  b.leave(1, 50, g);
  const trace::Trace tr = b.finish();
  TimelineOptions opts;
  opts.bins = 10;
  opts.legend = false;
  const std::string doc =
      renderTimelineSvg(tr, FunctionColors::standard(tr), opts).finalize();
  EXPECT_NE(doc.find("<line"), std::string::npos);
}

// --- no-data bands ------------------------------------------------------------------

/// Figure 3's trace salvage-loaded from a v2 image whose rank 1 block
/// table entry is zeroed: rank 1 is quarantined, ranks 0 and 2 survive.
trace::TraceView salvagedFigure3() {
  namespace ft = perfvar::testing;
  const ft::Image image = ft::FaultInjector::zeroTableEntry(
      ft::encodeImage(apps::buildFigure3Trace(), trace::kBinaryFormatV2), 1);
  trace::BinaryReadOptions options;
  options.recovery = trace::RecoveryMode::Salvage;
  trace::Trace tr = trace::readBinaryBuffer(image.data(), image.size(), options);
  return trace::TraceView::owned(std::move(tr));
}

/// Row 1 of the plot is one kNoDataColor rect `width` wide at `x0`, and no
/// other rect of the document has that color.
void expectRowOneIsTheOnlyNoDataBand(const std::string& doc, double x0,
                                     double y0, double rowHeight,
                                     double width) {
  const std::string noData = kNoDataColor.hex();
  ASSERT_EQ(noData, "#d2d2d6");
  const std::vector<SvgRect> rects = filledRects(doc);
  const std::vector<SvgRect> band = rowRects(rects, y0, rowHeight, 1);
  ASSERT_EQ(band.size(), 1u);
  EXPECT_EQ(band[0].fill, noData);
  EXPECT_NEAR(band[0].x, x0, 0.006);
  EXPECT_NEAR(band[0].width, width, 0.006);
  std::size_t noDataRects = 0;
  for (const SvgRect& r : rects) {
    noDataRects += r.fill == noData ? 1 : 0;
  }
  EXPECT_EQ(noDataRects, 1u);
  for (const std::size_t healthy : {std::size_t{0}, std::size_t{2}}) {
    EXPECT_FALSE(rowRects(rects, y0, rowHeight, healthy).empty()) << healthy;
  }
}

TEST(NoDataBands, QuarantinedRankIsOneGrayBandInTimelineAndHeatmap) {
  const trace::TraceView view = salvagedFigure3();
  ASSERT_EQ(view.processCount(), 3u);
  ASSERT_EQ(analysis::quarantinedRowIndices(view),
            (std::vector<std::size_t>{1}));

  // Timeline: 900 one-pixel bins from (4, 4), three 500/3-px rows; the
  // band is the merged run of kTimelineNoData bins (+0.2 overlap).
  TimelineOptions tl;
  const auto bins = timelineBins(view, tl);
  EXPECT_EQ(bins[1], std::vector<trace::FunctionId>(tl.bins, kTimelineNoData));
  const std::string timeline =
      renderTimelineSvg(view, FunctionColors::standard(view), tl).finalize();
  expectRowOneIsTheOnlyNoDataBand(timeline, 4.0, 4.0, 500.0 / 3.0, 900.2);

  // Heatmap: SOS matrix of the healthy ranks spread back onto all three.
  const analysis::AnalysisResult result = analysis::analyzeTrace(view);
  const Matrix matrix =
      analysis::expandQuarantinedRows(result.sos->sosMatrixSeconds(), view);
  ASSERT_EQ(matrix.size(), 3u);
  EXPECT_TRUE(matrix[1].empty());
  HeatmapOptions heat;
  heat.noDataRows = analysis::quarantinedRowIndices(view);
  const std::string heatmap = renderHeatmapSvg(matrix, heat).finalize();
  const double cols = static_cast<double>(matrix[0].size());
  const double cellW = std::max(2.0, 900.0 / cols);
  expectRowOneIsTheOnlyNoDataBand(heatmap, 4.0, 4.0, 500.0 / 3.0,
                                  cellW * cols + 0.3);
}

}  // namespace
}  // namespace perfvar::vis
