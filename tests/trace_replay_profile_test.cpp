#include <gtest/gtest.h>

#include "apps/paper_examples.hpp"
#include "profile/profile.hpp"
#include "trace/builder.hpp"
#include "trace/replay.hpp"
#include "util/error.hpp"

namespace perfvar {
namespace {

using trace::Frame;
using trace::ProcessId;
using trace::Timestamp;

trace::Trace nestedTrace() {
  trace::TraceBuilder b(1);
  const auto a = b.defineFunction("a");
  const auto c = b.defineFunction("c");
  const auto d = b.defineFunction("d");
  // a [0,100] { c [10,30] { d [15,25] }, c [40,80] }
  b.enter(0, 0, a);
  b.enter(0, 10, c);
  b.enter(0, 15, d);
  b.leave(0, 25, d);
  b.leave(0, 30, c);
  b.enter(0, 40, c);
  b.leave(0, 80, c);
  b.leave(0, 100, a);
  return b.finish();
}

TEST(Replay, FramesCarryCorrectTimesAndDepths) {
  const trace::Trace tr = nestedTrace();
  const auto frames = trace::collectFrames(tr.processes[0]);
  ASSERT_EQ(frames.size(), 4u);  // leave order: d, c, c, a
  EXPECT_EQ(tr.functions.name(frames[0].function), "d");
  EXPECT_EQ(frames[0].inclusive(), 10u);
  EXPECT_EQ(frames[0].exclusive(), 10u);
  EXPECT_EQ(frames[0].depth, 2u);
  EXPECT_EQ(tr.functions.name(frames[1].function), "c");
  EXPECT_EQ(frames[1].inclusive(), 20u);
  EXPECT_EQ(frames[1].exclusive(), 10u);  // minus d
  EXPECT_EQ(tr.functions.name(frames[3].function), "a");
  EXPECT_EQ(frames[3].inclusive(), 100u);
  EXPECT_EQ(frames[3].exclusive(), 100u - 20u - 40u);
  EXPECT_EQ(frames[3].parent, trace::kInvalidFunction);
  EXPECT_EQ(frames[1].parent, frames[3].function);
}

TEST(Replay, ThrowsOnUnbalancedStream) {
  trace::Trace tr;
  const auto f = tr.functions.intern("f");
  tr.processes.resize(1);
  tr.processes[0].events.push_back(trace::Event::enter(0, f));
  EXPECT_THROW(trace::collectFrames(tr.processes[0]), Error);
}

TEST(Replay, VisitsMessagesAndMetrics) {
  trace::TraceBuilder b(2);
  const auto f = b.defineFunction("f");
  const auto m = b.defineMetric("m");
  b.enter(0, 0, f);
  b.mpiSend(0, 1, 1, 3, 64);
  b.metric(0, 2, m, 7.0);
  b.leave(0, 9, f);
  b.enter(1, 0, f);
  b.leave(1, 1, f);
  const trace::Trace tr = b.finish();

  int messages = 0;
  int metrics = 0;
  trace::ReplayVisitor v;
  v.onMessage = [&](bool isSend, const trace::Event& e) {
    EXPECT_TRUE(isSend);
    EXPECT_EQ(e.size, 64u);
    ++messages;
  };
  v.onMetric = [&](const trace::Event& e, std::size_t depth) {
    EXPECT_EQ(e.value, 7.0);
    EXPECT_EQ(depth, 1u);
    ++metrics;
  };
  const auto& events = tr.processes[0].events;
  trace::replayEvents(trace::EventSpan(events.data(), events.size()), v);
  EXPECT_EQ(messages, 1);
  EXPECT_EQ(metrics, 1);
}

// --- Figure 1: inclusive vs exclusive time ---------------------------------

TEST(Profile, Figure1InclusiveExclusive) {
  const trace::Trace tr = apps::buildFigure1Trace();
  const auto profile = profile::FlatProfile::build(tr);
  const auto foo = *tr.functions.find("foo");
  const auto bar = *tr.functions.find("bar");
  EXPECT_EQ(profile.aggregated(foo).inclusive, 6u);
  EXPECT_EQ(profile.aggregated(foo).exclusive, 4u);
  EXPECT_EQ(profile.aggregated(bar).inclusive, 2u);
  EXPECT_EQ(profile.aggregated(bar).exclusive, 2u);
  EXPECT_EQ(profile.aggregated(foo).invocations, 1u);
}

TEST(Profile, AggregatesAcrossProcesses) {
  const trace::Trace tr = apps::buildFigure2Trace();
  const auto profile = profile::FlatProfile::build(tr);
  const auto fMain = *tr.functions.find("main");
  const auto fA = *tr.functions.find("a");
  EXPECT_EQ(profile.aggregated(fMain).inclusive, 54u);
  EXPECT_EQ(profile.aggregated(fMain).invocations, 3u);
  EXPECT_EQ(profile.aggregated(fA).inclusive, 36u);
  EXPECT_EQ(profile.aggregated(fA).invocations, 9u);
  // Per-process share.
  EXPECT_EQ(profile.process(0, fA).inclusive, 12u);
  EXPECT_EQ(profile.process(0, fA).invocations, 3u);
}

TEST(Profile, SortingIsByTimeThenId) {
  const trace::Trace tr = apps::buildFigure2Trace();
  const auto profile = profile::FlatProfile::build(tr);
  const auto byInc = profile.byInclusiveTime();
  ASSERT_GE(byInc.size(), 2u);
  EXPECT_EQ(tr.functions.name(byInc[0].function), "main");
  EXPECT_EQ(tr.functions.name(byInc[1].function), "a");
  for (std::size_t i = 1; i < byInc.size(); ++i) {
    EXPECT_GE(byInc[i - 1].inclusive, byInc[i].inclusive);
  }
}

TEST(Profile, MinMaxInclusiveTracked) {
  trace::TraceBuilder b(1);
  const auto f = b.defineFunction("f");
  b.enter(0, 0, f);
  b.leave(0, 10, f);
  b.enter(0, 10, f);
  b.leave(0, 50, f);
  const trace::Trace tr = b.finish();
  const auto profile = profile::FlatProfile::build(tr);
  EXPECT_EQ(profile.aggregated(f).minInclusive, 10u);
  EXPECT_EQ(profile.aggregated(f).maxInclusive, 40u);
}

TEST(Profile, ExclusivePerProcessMask) {
  const trace::Trace tr = nestedTrace();
  const auto profile = profile::FlatProfile::build(tr);
  std::vector<bool> all(tr.functions.size(), true);
  const auto totals = profile.exclusiveTimePerProcess(all);
  ASSERT_EQ(totals.size(), 1u);
  // Total exclusive time equals the root's inclusive time (full coverage).
  EXPECT_EQ(totals[0], 100u);
}

TEST(Profile, RecursionCountsEachInvocation) {
  trace::TraceBuilder b(1);
  const auto f = b.defineFunction("rec");
  b.enter(0, 0, f);
  b.enter(0, 10, f);
  b.leave(0, 20, f);
  b.leave(0, 40, f);
  const trace::Trace tr = b.finish();
  const auto profile = profile::FlatProfile::build(tr);
  EXPECT_EQ(profile.aggregated(f).invocations, 2u);
  EXPECT_EQ(profile.aggregated(f).inclusive, 50u);  // 40 + 10
  EXPECT_EQ(profile.aggregated(f).exclusive, 40u);  // (40-10) + 10
}

TEST(Profile, FormatTopFunctionsContainsNames) {
  const trace::Trace tr = apps::buildFigure2Trace();
  const auto profile = profile::FlatProfile::build(tr);
  const std::string text = profile::formatTopFunctions(tr, profile, 3);
  EXPECT_NE(text.find("main"), std::string::npos);
  EXPECT_NE(text.find("invocations"), std::string::npos);
}

}  // namespace
}  // namespace perfvar
