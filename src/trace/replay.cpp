#include "trace/replay.hpp"

#include "util/error.hpp"

namespace perfvar::trace {

namespace {

/// Adapter running the std::function-based ReplayVisitor through the
/// statically-typed walk; absent callbacks stay skippable.
struct DynamicVisitor {
  const ReplayVisitor& v;

  void onEnter(FunctionId f, Timestamp t, std::size_t depth) const {
    if (v.onEnter) {
      v.onEnter(f, t, depth);
    }
  }
  void onLeave(const Frame& frame) const {
    if (v.onLeave) {
      v.onLeave(frame);
    }
  }
  void onMessage(bool isSend, const Event& e) const {
    if (v.onMessage) {
      v.onMessage(isSend, e);
    }
  }
  void onMetric(const Event& e, std::size_t depth) const {
    if (v.onMetric) {
      v.onMetric(e, depth);
    }
  }
};

}  // namespace

void replayEvents(EventSpan events, const ReplayVisitor& visitor) {
  replayEventsWith(events, DynamicVisitor{visitor});
}

std::vector<Frame> collectFrames(const ProcessTrace& process) {
  std::vector<Frame> frames;
  ReplayVisitor v;
  v.onLeave = [&](const Frame& f) { frames.push_back(f); };
  replayEvents(EventSpan(process.events.data(), process.events.size()), v);
  return frames;
}

}  // namespace perfvar::trace
