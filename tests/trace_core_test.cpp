#include <gtest/gtest.h>

#include <algorithm>

#include "trace/builder.hpp"
#include "trace/stats.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "lint/lint.hpp"

namespace perfvar::trace {
namespace {

TEST(FunctionRegistry, InternIsIdempotent) {
  FunctionRegistry reg;
  const auto a = reg.intern("foo", "G");
  const auto b = reg.intern("foo", "G");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.name(a), "foo");
  EXPECT_EQ(reg.at(a).group, "G");
}

TEST(FunctionRegistry, ConflictingReRegistrationThrows) {
  FunctionRegistry reg;
  reg.intern("foo", "G", Paradigm::Compute);
  EXPECT_THROW(reg.intern("foo", "G", Paradigm::MPI), Error);
  EXPECT_THROW(reg.intern("foo", "H", Paradigm::Compute), Error);
}

TEST(FunctionRegistry, FindReturnsNulloptForUnknown) {
  FunctionRegistry reg;
  reg.intern("foo");
  EXPECT_TRUE(reg.find("foo").has_value());
  EXPECT_FALSE(reg.find("bar").has_value());
}

TEST(FunctionRegistry, EmptyNameRejected) {
  FunctionRegistry reg;
  EXPECT_THROW(reg.intern(""), Error);
}

TEST(MetricRegistry, InternAndModeConflict) {
  MetricRegistry reg;
  const auto m = reg.intern("PAPI_TOT_CYC", "cycles");
  EXPECT_EQ(reg.intern("PAPI_TOT_CYC"), m);
  EXPECT_THROW(reg.intern("PAPI_TOT_CYC", "", MetricMode::Absolute), Error);
}

TEST(Types, SecondsTicksRoundTrip) {
  EXPECT_EQ(secondsToTicks(1.5, 1'000'000'000ULL), 1'500'000'000ULL);
  EXPECT_EQ(secondsToTicks(0.0, 1000), 0ULL);
  EXPECT_DOUBLE_EQ(ticksToSeconds(250, 1000), 0.25);
  EXPECT_THROW(secondsToTicks(-1.0, 1000), Error);
}

TEST(Builder, BuildsValidTrace) {
  TraceBuilder b(2);
  const auto f = b.defineFunction("work");
  const auto g = b.defineFunction("inner");
  b.enter(0, 0, f);
  b.enter(0, 10, g);
  b.leave(0, 20, g);
  b.leave(0, 30, f);
  b.enter(1, 5, f);
  b.leave(1, 25, f);
  const Trace tr = b.finish();
  EXPECT_TRUE(lint::validateStructure(tr).empty());
  EXPECT_EQ(tr.eventCount(), 6u);
  EXPECT_EQ(tr.startTime(), 0u);
  EXPECT_EQ(tr.endTime(), 30u);
}

TEST(Trace, StartEndTimeMatchFullEventScan) {
  // startTime()/endTime() rely on the sorted-stream invariant (front() /
  // back() of each process); cross-check against a scan of every event.
  TraceBuilder b(4);
  const auto f = b.defineFunction("work");
  b.enter(1, 7, f);
  b.leave(1, 900, f);
  b.enter(2, 3, f);
  b.leave(2, 450, f);
  b.enter(3, 100, f);
  b.leave(3, 2000, f);
  const Trace tr = b.finish();  // process 0 stays empty

  Timestamp lo = 0;
  Timestamp hi = 0;
  bool any = false;
  for (const auto& p : tr.processes) {
    for (const Event& e : p.events) {
      lo = any ? std::min(lo, e.time) : e.time;
      hi = any ? std::max(hi, e.time) : e.time;
      any = true;
    }
  }
  ASSERT_TRUE(any);
  EXPECT_EQ(tr.startTime(), lo);
  EXPECT_EQ(tr.startTime(), 3u);
  EXPECT_EQ(tr.endTime(), hi);
  EXPECT_EQ(tr.endTime(), 2000u);

  const Trace empty;
  EXPECT_EQ(empty.startTime(), 0u);
  EXPECT_EQ(empty.endTime(), 0u);
}

TEST(Builder, RejectsMismatchedLeave) {
  TraceBuilder b(1);
  const auto f = b.defineFunction("f");
  const auto g = b.defineFunction("g");
  b.enter(0, 0, f);
  EXPECT_THROW(b.leave(0, 1, g), Error);
}

TEST(Builder, RejectsLeaveWithoutEnter) {
  TraceBuilder b(1);
  const auto f = b.defineFunction("f");
  EXPECT_THROW(b.leave(0, 1, f), Error);
}

TEST(Builder, RejectsTimeTravel) {
  TraceBuilder b(1);
  const auto f = b.defineFunction("f");
  b.enter(0, 10, f);
  EXPECT_THROW(b.leave(0, 5, f), Error);
}

TEST(Builder, RejectsUnclosedFramesAtFinish) {
  TraceBuilder b(1);
  const auto f = b.defineFunction("f");
  b.enter(0, 0, f);
  EXPECT_THROW(b.finish(), Error);
}

TEST(Builder, RejectsSelfMessages) {
  TraceBuilder b(2);
  EXPECT_THROW(b.mpiSend(0, 0, 0, 1, 8), Error);
  EXPECT_THROW(b.mpiRecv(1, 0, 1, 1, 8), Error);
}

TEST(Builder, RejectsUndefinedIds) {
  TraceBuilder b(1);
  EXPECT_THROW(b.enter(0, 0, 7), Error);
  EXPECT_THROW(b.metric(0, 0, 7, 1.0), Error);
}

TEST(Builder, EqualTimestampsAreAllowed) {
  TraceBuilder b(1);
  const auto f = b.defineFunction("f");
  const auto g = b.defineFunction("g");
  b.enter(0, 5, f);
  b.enter(0, 5, g);
  b.leave(0, 5, g);
  b.leave(0, 5, f);
  const Trace tr = b.finish();
  EXPECT_TRUE(lint::validateStructure(tr).empty());
}

TEST(Builder, DepthTracksNesting) {
  TraceBuilder b(1);
  const auto f = b.defineFunction("f");
  EXPECT_EQ(b.depth(0), 0u);
  b.enter(0, 0, f);
  EXPECT_EQ(b.depth(0), 1u);
  b.enter(0, 1, f);
  EXPECT_EQ(b.depth(0), 2u);
  b.leave(0, 2, f);
  b.leave(0, 3, f);
  EXPECT_EQ(b.depth(0), 0u);
}

TEST(Validate, DetectsHandCraftedCorruption) {
  Trace tr;
  const auto f = tr.functions.intern("f");
  tr.processes.resize(1);
  tr.processes[0].events.push_back(Event::enter(10, f));
  tr.processes[0].events.push_back(Event::leave(5, f));  // time decreases
  const auto issues = lint::validateStructure(tr);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("timestamp"), std::string::npos);
}

TEST(Validate, DetectsUnclosedFrame) {
  Trace tr;
  const auto f = tr.functions.intern("f");
  tr.processes.resize(1);
  tr.processes[0].events.push_back(Event::enter(0, f));
  const auto issues = lint::validateStructure(tr);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("unclosed"), std::string::npos);
  EXPECT_THROW(lint::requireStructurallyValid(tr), Error);
}

TEST(Validate, DetectsUndefinedFunctionReference) {
  Trace tr;
  tr.functions.intern("f");
  tr.processes.resize(1);
  tr.processes[0].events.push_back(Event::enter(0, 42));
  EXPECT_FALSE(lint::validateStructure(tr).empty());
}

TEST(Stats, CountsEverything) {
  TraceBuilder b(2);
  const auto f = b.defineFunction("f");
  const auto m = b.defineMetric("m");
  b.enter(0, 0, f);
  b.mpiSend(0, 1, 1, 9, 100);
  b.metric(0, 2, m, 5.0);
  b.leave(0, 10, f);
  b.enter(1, 0, f);
  b.mpiRecv(1, 3, 0, 9, 100);
  b.leave(1, 12, f);
  const Trace statsTrace = b.finish();
  const TraceStats s = computeStats(statsTrace);
  EXPECT_EQ(s.processCount, 2u);
  EXPECT_EQ(s.eventCount, 7u);
  EXPECT_EQ(s.messageCount, 1u);
  EXPECT_EQ(s.messageBytes, 100u);
  EXPECT_EQ(s.maxStackDepth, 1u);
  EXPECT_EQ(s.eventsByKind[static_cast<std::size_t>(EventKind::Metric)], 1u);
  const std::string text = formatStats(s);
  EXPECT_NE(text.find("processes:   2"), std::string::npos);
}

}  // namespace
}  // namespace perfvar::trace
