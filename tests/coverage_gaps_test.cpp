/// Coverage for smaller API surfaces not exercised elsewhere: exclusive
/// profile ordering, color overrides, detection-outcome helpers, trace
/// time bounds, and golden PVTX texts of the paper examples.

#include <gtest/gtest.h>

#include "analysis/baselines.hpp"
#include "analysis/cluster.hpp"
#include "analysis/patterns.hpp"
#include "apps/paper_examples.hpp"
#include "profile/profile.hpp"
#include "trace/builder.hpp"
#include "trace/text_io.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "vis/timeline.hpp"

namespace perfvar {
namespace {

TEST(ProfileGaps, ExclusiveMaskSizeValidated) {
  const trace::Trace tr = apps::buildFigure1Trace();
  const auto profile = profile::FlatProfile::build(tr);
  EXPECT_THROW(profile.exclusiveTimePerProcess(std::vector<bool>(99, true)),
               Error);
}

TEST(TraceGaps, TimeBoundsWithEmptyLeadingProcess) {
  trace::TraceBuilder b(3);
  const auto f = b.defineFunction("f");
  // Process 0 stays empty; 1 and 2 have events.
  b.enter(1, 50, f);
  b.leave(1, 60, f);
  b.enter(2, 10, f);
  b.leave(2, 90, f);
  const trace::Trace tr = b.finish();
  EXPECT_EQ(tr.startTime(), 10u);
  EXPECT_EQ(tr.endTime(), 90u);
  EXPECT_DOUBLE_EQ(tr.durationSeconds(), 80e-9);
}

TEST(TraceGaps, SegmentContains) {
  analysis::Segment s;
  s.enter = 10;
  s.leave = 20;
  EXPECT_TRUE(s.contains(10));
  EXPECT_TRUE(s.contains(19));
  EXPECT_FALSE(s.contains(20));
  EXPECT_FALSE(s.contains(9));
}

TEST(TraceGaps, BuilderAccessorsValidate) {
  trace::TraceBuilder b(2);
  const auto f = b.defineFunction("f");
  b.enter(0, 0, f);
  EXPECT_EQ(b.eventCount(0), 1u);
  EXPECT_EQ(b.eventCount(1), 0u);
  EXPECT_THROW(b.eventCount(5), Error);
  EXPECT_THROW(b.setProcessName(5, "x"), Error);
  b.leave(0, 1, f);
}

TEST(AnalysisGaps, TopSeparationDegenerate) {
  analysis::DetectionOutcome outcome;
  outcome.scores = {5.0, 1.0};
  EXPECT_EQ(outcome.topSeparation(), 0.0);  // too few scores
}

TEST(AnalysisGaps, PatternTotalValidatesKind) {
  analysis::PatternReport report;
  EXPECT_THROW(report.patternTotal(analysis::PatternKind::LateSender), Error);
  EXPECT_THROW(report.worstVictim(), Error);
}

TEST(AnalysisGaps, ClusterAccessorsValidate) {
  analysis::ClusterResult result;
  EXPECT_THROW(result.slowestCluster(), Error);
}

TEST(FormatGaps, TableAndSparklineEdges) {
  EXPECT_TRUE(fmt::table({}).empty());
  EXPECT_EQ(fmt::sparkline(std::vector<double>{42.0}).size(), 3u);  // 1 glyph
}

// Golden texts: the paper-example traces must stay byte-stable (they are
// the ground truth of the fig1-fig3 reproductions).
TEST(Golden, Figure1PvtxText) {
  const std::string expected =
      "PVTX 1\n"
      "resolution 1\n"
      "function 0 \"foo\" \"\" COMPUTE\n"
      "function 1 \"bar\" \"\" COMPUTE\n"
      "process 0 \"Rank 0\"\n"
      "E 0 0\n"
      "E 2 1\n"
      "L 4 1\n"
      "L 6 0\n";
  EXPECT_EQ(trace::toText(apps::buildFigure1Trace()), expected);
}

TEST(Golden, Figure3FirstIterationOfProcess0) {
  const std::string text = trace::toText(apps::buildFigure3Trace());
  // Process 0's first iteration: a [0,6], calc [0,5], MPI [5,6].
  EXPECT_NE(text.find("process 0 \"Rank 0\"\n"
                      "E 0 0\n"   // main
                      "E 0 1\n"   // a
                      "E 0 2\n"   // calc
                      "L 5 2\n"
                      "E 5 3\n"   // MPI
                      "L 6 3\n"
                      "L 6 1\n"),
            std::string::npos);
}

}  // namespace
}  // namespace perfvar
