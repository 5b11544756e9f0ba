/// Additional edge-case coverage across modules: varint boundaries,
/// degenerate charts, greedy partitioning, custom
/// classifiers in the dominant selection, and renderer geometry.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "analysis/dominant.hpp"
#include "analysis/pipeline.hpp"
#include "apps/paper_examples.hpp"
#include "balance/partition.hpp"
#include "sim/network.hpp"
#include "trace/binary_io.hpp"
#include "trace/builder.hpp"
#include "util/error.hpp"
#include "vis/chart.hpp"
#include "vis/heatmap.hpp"

namespace perfvar {
namespace {

// --- trace: extreme values through the binary format -------------------------

TEST(BinaryEdge, HugeTimestampsAndValuesRoundTrip) {
  trace::TraceBuilder b(1);
  const auto f = b.defineFunction("f");
  const auto m = b.defineMetric("m");
  const trace::Timestamp huge =
      std::numeric_limits<trace::Timestamp>::max() / 2;
  b.enter(0, 0, f);
  b.metric(0, 1, m, 1.7976931348623157e308);
  b.metric(0, 2, m, -0.0);
  b.metric(0, 3, m, 4.9e-324);  // denormal min
  b.leave(0, huge, f);
  const trace::Trace tr = b.finish();
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  trace::writeBinary(tr, buf);
  const trace::Trace loaded = trace::readBinary(buf);
  EXPECT_EQ(loaded.processes[0].events.back().time, huge);
  EXPECT_EQ(loaded.processes[0].events[1].value, 1.7976931348623157e308);
  EXPECT_EQ(loaded.processes[0].events[3].value, 4.9e-324);
}

TEST(BinaryEdge, ManySmallProcessesRoundTrip) {
  trace::TraceBuilder b(64);
  const auto f = b.defineFunction("f");
  for (trace::ProcessId p = 0; p < 64; ++p) {
    b.enter(p, p, f);
    b.leave(p, p + 1, f);
  }
  const trace::Trace tr = b.finish();
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  trace::writeBinary(tr, buf);
  EXPECT_EQ(trace::readBinary(buf).processCount(), 64u);
}

// --- charts with explicit x values --------------------------------------------

TEST(ChartEdge, ExplicitXsAreRespected) {
  vis::Series s;
  s.label = "sparse";
  s.xs = {0.0, 10.0, 100.0};
  s.ys = {1.0, 2.0, 3.0};
  vis::ChartOptions opts;
  const std::string doc = vis::renderLineChart({s}, opts).finalize();
  EXPECT_NE(doc.find("<path"), std::string::npos);
}

TEST(ChartEdge, ConstantSeriesDoesNotDivideByZero) {
  vis::Series s;
  s.ys = {5.0, 5.0, 5.0};
  const std::string doc =
      vis::renderLineChart({s}, vis::ChartOptions{}).finalize();
  EXPECT_NE(doc.find("<svg"), std::string::npos);
}

TEST(ChartEdge, AllNaNSeriesRejected) {
  vis::Series s;
  s.ys = {std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(vis::renderLineChart({s}, vis::ChartOptions{}), Error);
}

// --- partitioning edge cases -----------------------------------------------------

TEST(PartitionEdge, AllZeroWeights) {
  const std::vector<double> w(10, 0.0);
  const auto p = balance::partitionOptimal(w, 3);
  EXPECT_EQ(p.parts(), 3u);
  EXPECT_DOUBLE_EQ(p.bottleneck(w), 0.0);
  EXPECT_DOUBLE_EQ(balance::partitionImbalance(p, w), 0.0);
}

TEST(PartitionEdge, SingleGiantItemDominates) {
  const std::vector<double> w = {1.0, 1.0, 100.0, 1.0};
  const auto p = balance::partitionOptimal(w, 3);
  EXPECT_NEAR(p.bottleneck(w), 100.0, 1e-6);
}

TEST(PartitionEdge, GreedyHandlesTrailingZeros) {
  const std::vector<double> w = {5.0, 5.0, 0.0, 0.0, 0.0};
  const auto p = balance::partitionGreedy(w, 2);
  EXPECT_EQ(p.parts(), 2u);
  EXPECT_LE(p.bottleneck(w), 10.0);
}

// --- network model monotonicity -----------------------------------------------

TEST(NetworkEdge, CostsAreMonotoneInRanks) {
  const sim::NetworkModel net;
  for (std::size_t r = 2; r < 1000; r *= 2) {
    EXPECT_LE(net.barrierCost(r), net.barrierCost(r * 2));
    EXPECT_LE(net.allreduceCost(r, 64), net.allreduceCost(r * 2, 64));
  }
}

// --- dominant selection with custom classifier ----------------------------------

TEST(DominantEdge, CustomClassifierExcludesByGroup) {
  trace::TraceBuilder b(1);
  const auto noisy = b.defineFunction("tracer_overhead", "INSTRUMENTATION");
  const auto real = b.defineFunction("solver");
  trace::Timestamp t = 0;
  for (int i = 0; i < 5; ++i) {
    b.enter(0, t, noisy);
    b.leave(0, t + 100, noisy);
    b.enter(0, t + 100, real);
    b.leave(0, t + 150, real);
    t += 150;
  }
  const trace::Trace tr = b.finish();
  analysis::DominantOptions opts;
  opts.syncClassifier =
      analysis::SyncClassifier([](const trace::FunctionDef& def) {
        return def.group == "INSTRUMENTATION";
      });
  const auto sel = analysis::selectDominantFunction(tr, opts);
  ASSERT_TRUE(sel.hasDominant());
  EXPECT_EQ(sel.dominant().function, real);
}

// --- SosResult metric matrix ------------------------------------------------------

TEST(SosEdge, MetricMatrixMatchesDeltas) {
  trace::TraceBuilder b(2);
  const auto f = b.defineFunction("step");
  const auto m = b.defineMetric("ctr");
  for (trace::ProcessId p = 0; p < 2; ++p) {
    double cumulative = 0.0;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = static_cast<trace::Timestamp>(i) * 100;
      b.enter(p, t0, f);
      cumulative += 10.0 * (p + 1);
      b.metric(p, t0 + 50, m, cumulative);
      b.leave(p, t0 + 90, f);
    }
  }
  const trace::Trace tr = b.finish();
  const auto sos = analysis::analyzeSos(tr, f);
  const auto matrix = sos.metricMatrix(m);
  EXPECT_DOUBLE_EQ(matrix[0][0], 10.0);
  EXPECT_DOUBLE_EQ(matrix[1][2], 20.0);
  EXPECT_THROW(sos.metricMatrix(99), Error);
}

// --- heatmap row label stride -------------------------------------------------------

TEST(HeatmapEdge, ExplicitRowLabelStride) {
  vis::Matrix m(20, std::vector<double>(5, 1.0));
  vis::HeatmapOptions opts;
  for (int i = 0; i < 20; ++i) {
    opts.rowLabels.push_back("P" + std::to_string(i));
  }
  opts.rowLabelStride = 5;
  const std::string doc = vis::renderHeatmapSvg(m, opts).finalize();
  EXPECT_NE(doc.find(">P0<"), std::string::npos);
  EXPECT_NE(doc.find(">P15<"), std::string::npos);
  EXPECT_EQ(doc.find(">P3<"), std::string::npos);  // skipped by stride
}

// --- variation options -----------------------------------------------------------------

TEST(VariationEdge, ThresholdControlsHotspotCount) {
  trace::TraceBuilder b(2);
  const auto f = b.defineFunction("step");
  for (std::size_t i = 0; i < 30; ++i) {
    for (trace::ProcessId p = 0; p < 2; ++p) {
      const auto t0 = static_cast<trace::Timestamp>(i) * 1000;
      const trace::Timestamp w =
          (p == 1 && i == 10) ? 500 : 100 + (i * 3 + p) % 7;
      b.enter(p, t0, f);
      b.leave(p, t0 + w, f);
    }
  }
  const trace::Trace tr = b.finish();
  const auto sos = analysis::analyzeSos(tr, f);
  analysis::VariationOptions loose;
  loose.outlierThreshold = 2.0;
  analysis::VariationOptions strict;
  strict.outlierThreshold = 1000.0;
  EXPECT_GT(analysis::analyzeVariation(sos, loose).hotspots.size(),
            analysis::analyzeVariation(sos, strict).hotspots.size());
  EXPECT_TRUE(analysis::analyzeVariation(sos, strict).hotspots.empty());
}

// --- pipeline candidates format round -----------------------------------------------

TEST(PipelineEdge, FormatAnalysisIsSelfContained) {
  static const trace::Trace tr = apps::buildFigure2Trace();
  const auto result = analysis::analyzeTrace(tr);
  const std::string text = analysis::formatAnalysis(tr, result);
  EXPECT_NE(text.find("dominant-function selection"), std::string::npos);
  EXPECT_NE(text.find("runtime-variation analysis"), std::string::npos);
}

}  // namespace
}  // namespace perfvar
