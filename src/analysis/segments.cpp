#include "analysis/segments.hpp"

#include <algorithm>

#include "trace/replay.hpp"
#include "util/error.hpp"

namespace perfvar::analysis {

namespace {

/// Segments of a single process (row `p` of extractSegments).
std::vector<Segment> extractSegmentsProcess(const trace::TraceView& tr,
                                            trace::ProcessId p,
                                            trace::FunctionId f) {
  PERFVAR_REQUIRE(p < tr.processCount(), "invalid process id");
  std::vector<Segment> result;
  std::size_t nesting = 0;      // current nesting inside f
  trace::Timestamp start = 0;   // enter time of the outermost invocation
  trace::ReplayVisitor v;
  v.onEnter = [&](trace::FunctionId fn, trace::Timestamp t, std::size_t) {
    if (fn == f) {
      if (nesting == 0) {
        start = t;
      }
      ++nesting;
    }
  };
  v.onLeave = [&](const trace::Frame& frame) {
    if (frame.function == f) {
      PERFVAR_ASSERT(nesting > 0, "segment nesting underflow");
      --nesting;
      if (nesting == 0) {
        Segment s;
        s.process = p;
        s.index = static_cast<std::uint32_t>(result.size());
        s.enter = start;
        s.leave = frame.leaveTime;
        result.push_back(s);
      }
    }
  };
  const trace::RankPin pin = tr.rank(p);
  trace::replayEvents(pin.events(), v);
  return result;
}

}  // namespace

std::vector<std::vector<Segment>> extractSegments(const trace::TraceView& tr,
                                                  trace::FunctionId f) {
  PERFVAR_REQUIRE(f < tr.functions().size(),
                  "segmentation function is not defined in this trace");
  std::vector<std::vector<Segment>> result(tr.processCount());
  for (trace::ProcessId p = 0; p < tr.processCount(); ++p) {
    result[p] = extractSegmentsProcess(tr, p, f);
  }
  return result;
}

SegmentationInfo describeSegmentation(
    const std::vector<std::vector<Segment>>& segments) {
  SegmentationInfo info;
  if (segments.empty()) {
    return info;
  }
  info.minPerProcess = segments.front().size();
  info.maxPerProcess = segments.front().size();
  for (const auto& per : segments) {
    info.totalSegments += per.size();
    info.minPerProcess = std::min(info.minPerProcess, per.size());
    info.maxPerProcess = std::max(info.maxPerProcess, per.size());
  }
  info.uniform = info.minPerProcess == info.maxPerProcess;
  return info;
}

}  // namespace perfvar::analysis
