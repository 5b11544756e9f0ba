#ifndef PERFVAR_TRACE_REPLAY_HPP
#define PERFVAR_TRACE_REPLAY_HPP

/// \file replay.hpp
/// Call-stack replay over a process event stream.
///
/// replayEventsWith (and its std::function front end replayEvents) walks
/// one process stream and reconstructs the call stack, invoking visitor
/// callbacks with full frame information (enter time, depth, parent).
/// Profile construction, segmentation and SOS analysis are all
/// implemented on top of this single pass.

#include <functional>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "trace/view.hpp"
#include "util/error.hpp"

namespace perfvar::trace {

/// One completed function invocation as seen during replay.
struct Frame {
  FunctionId function = kInvalidFunction;
  FunctionId parent = kInvalidFunction;  ///< kInvalidFunction at top level
  Timestamp enterTime = 0;
  Timestamp leaveTime = 0;
  std::size_t depth = 0;          ///< 0 = top level
  Timestamp childrenTime = 0;     ///< sum of direct children inclusive times

  Timestamp inclusive() const { return leaveTime - enterTime; }
  Timestamp exclusive() const { return inclusive() - childrenTime; }
};

/// Visitor interface of the replayer. All callbacks are optional.
struct ReplayVisitor {
  /// Called at each Enter event (function, time, depth after push - 1).
  std::function<void(FunctionId, Timestamp, std::size_t)> onEnter;
  /// Called at each Leave event with the completed frame.
  std::function<void(const Frame&)> onLeave;
  /// Called for each message event (isSend, event).
  std::function<void(bool, const Event&)> onMessage;
  /// Called for each metric sample with the current stack depth.
  std::function<void(const Event&, std::size_t)> onMetric;
};

/// Throw perfvar::Error (MalformedEvent) unless `ref` names one of the
/// `defined` definitions: the replay never consults the registries, so a
/// visitor indexing a per-definition table by ref checks it here first.
inline void requireDefinedRef(std::uint32_t ref, std::size_t defined,
                              const char* kind, ProcessId p) {
  PERFVAR_REQUIRE_E(ref < defined,
                    std::string("undefined ") + kind + " ref " +
                        std::to_string(ref) + " on process " +
                        std::to_string(p),
                    ErrorContext::at(ErrorCode::MalformedEvent,
                                     ErrorContext::kNoByteOffset, p));
}

/// Replay one time-sorted event stream through a statically-typed visitor
/// (any object with onEnter/onLeave/onMessage/onMetric member functions,
/// typically defined inline so the callbacks inline into the walk — the
/// std::function indirection of ReplayVisitor costs ~2x on the SOS hot
/// loop). Same walk, same error contract as replayEvents below; the two
/// are kept behaviorally identical by the differential kernel tests.
template <typename Visitor>
void replayEventsWith(EventSpan events, Visitor&& visitor) {
  struct OpenFrame {
    FunctionId function;
    Timestamp enterTime;
    Timestamp childrenTime;
  };
  std::vector<OpenFrame> stack;
  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::Enter: {
        visitor.onEnter(e.ref, e.time, stack.size());
        stack.push_back(OpenFrame{e.ref, e.time, 0});
        break;
      }
      case EventKind::Leave: {
        PERFVAR_REQUIRE(!stack.empty() && stack.back().function == e.ref,
                        "replay: unbalanced enter/leave");
        const OpenFrame open = stack.back();
        stack.pop_back();
        Frame frame;
        frame.function = open.function;
        frame.parent = stack.empty() ? kInvalidFunction : stack.back().function;
        frame.enterTime = open.enterTime;
        frame.leaveTime = e.time;
        frame.depth = stack.size();
        frame.childrenTime = open.childrenTime;
        if (!stack.empty()) {
          stack.back().childrenTime += frame.inclusive();
        }
        visitor.onLeave(frame);
        break;
      }
      case EventKind::MpiSend:
        visitor.onMessage(true, e);
        break;
      case EventKind::MpiRecv:
        visitor.onMessage(false, e);
        break;
      case EventKind::Metric:
        visitor.onMetric(e, stack.size());
        break;
    }
  }
  PERFVAR_REQUIRE(stack.empty(), "replay: unclosed frames at stream end");
}

/// Replay one time-sorted event stream. The stream must be structurally
/// valid (the lint structural rules — stack balance, monotonic clocks);
/// malformed streams throw.
void replayEvents(EventSpan events, const ReplayVisitor& visitor);

/// Collect all completed frames of a process stream in leave order.
std::vector<Frame> collectFrames(const ProcessTrace& process);

}  // namespace perfvar::trace

#endif  // PERFVAR_TRACE_REPLAY_HPP
