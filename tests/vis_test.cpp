#include <cmath>
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>

#include "apps/paper_examples.hpp"
#include "trace/builder.hpp"
#include "util/error.hpp"
#include "vis/color.hpp"
#include "vis/heatmap.hpp"
#include "vis/image.hpp"
#include "vis/svg.hpp"
#include "vis/timeline.hpp"

namespace perfvar::vis {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

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
  EXPECT_EQ(map.at(kNaN), map.missing());
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

// --- image -------------------------------------------------------------------

TEST(Image, PixelAccessAndClipping) {
  Image img(10, 5);
  img.set(2, 3, Rgb{9, 8, 7});
  EXPECT_EQ(img.at(2, 3), (Rgb{9, 8, 7}));
  img.set(100, 100, Rgb{1, 1, 1});  // silently clipped
  EXPECT_THROW(img.at(100, 100), Error);
}

TEST(Image, FillRectClipsToBounds) {
  Image img(4, 4, Rgb{0, 0, 0});
  img.fillRect(2, 2, 10, 10, Rgb{255, 0, 0});
  EXPECT_EQ(img.at(3, 3), (Rgb{255, 0, 0}));
  EXPECT_EQ(img.at(1, 1), (Rgb{0, 0, 0}));
}

TEST(Image, PpmHeaderAndSize) {
  Image img(3, 2, Rgb{1, 2, 3});
  std::ostringstream os;
  img.writePpm(os);
  const std::string data = os.str();
  EXPECT_EQ(data.rfind("P6\n3 2\n255\n", 0), 0u);
  EXPECT_EQ(data.size(), 11u + 3u * 2u * 3u);
  EXPECT_EQ(static_cast<unsigned char>(data[11]), 1);
}

TEST(Image, BmpSizeMatchesHeader) {
  Image img(5, 3);  // row stride 15 -> padded to 16
  std::ostringstream os;
  img.writeBmp(os);
  const std::string data = os.str();
  EXPECT_EQ(data.size(), 54u + 16u * 3u);
  EXPECT_EQ(data[0], 'B');
  EXPECT_EQ(data[1], 'M');
}

TEST(Image, TextRendersSomething) {
  Image img(100, 12, Rgb{255, 255, 255});
  img.text(0, 0, "ABC 123", Rgb{0, 0, 0});
  std::size_t darkPixels = 0;
  for (std::size_t y = 0; y < img.height(); ++y) {
    for (std::size_t x = 0; x < img.width(); ++x) {
      if (img.at(x, y) == (Rgb{0, 0, 0})) {
        ++darkPixels;
      }
    }
  }
  EXPECT_GT(darkPixels, 20u);
  EXPECT_EQ(Image::textWidth("ABC"), 18u);
  EXPECT_EQ(Image::textHeight(2), 14u);
}

TEST(Image, RejectsZeroDimensions) {
  EXPECT_THROW(Image(0, 5), Error);
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

TEST(Heatmap, ImageDimensionsFollowMatrix) {
  const Matrix m = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  HeatmapOptions opts;
  opts.legend = false;
  opts.cellWidth = 10;
  opts.cellHeight = 8;
  const Image img = renderHeatmapImage(m, opts);
  EXPECT_EQ(img.width(), 3u * 10u + 2u);
  EXPECT_EQ(img.height(), 2u * 8u + 2u);
}

TEST(Heatmap, HotCellIsRedderThanColdCell) {
  const Matrix m = {{0.0, 1.0}};
  HeatmapOptions opts;
  opts.legend = false;
  opts.robustScale = false;
  opts.cellWidth = 4;
  opts.cellHeight = 4;
  const Image img = renderHeatmapImage(m, opts);
  const Rgb cold = img.at(2, 2);
  const Rgb hot = img.at(6, 2);
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

TEST(Heatmap, AnsiRenderContainsEscapes) {
  const Matrix m = {{0.0, 1.0}};
  HeatmapOptions opts;
  opts.legend = false;
  const std::string text = renderHeatmapAnsi(m, opts, 10);
  EXPECT_NE(text.find("\x1b[48;2;"), std::string::npos);
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
  EXPECT_THROW(renderHeatmapImage({}, HeatmapOptions{}), Error);
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
  const Image img = renderTimelineImage(tr, colors, opts);
  EXPECT_GT(img.width(), 50u);
  const std::string doc = renderTimelineSvg(tr, colors, opts).finalize();
  EXPECT_NE(doc.find("<svg"), std::string::npos);
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

}  // namespace
}  // namespace perfvar::vis
