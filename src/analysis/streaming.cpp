#include "analysis/streaming.hpp"

#include <algorithm>
#include <queue>
#include <string>

#include "trace/replay.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/stats.hpp"

namespace perfvar::analysis {

std::string formatStreamingAlert(const trace::Trace& trace,
                                 const StreamingAlert& alert) {
  const trace::ProcessId p = alert.segment.segment.process;
  const std::string name = p < trace.processCount()
                               ? trace.processes[p].name
                               : std::string{};
  return "alert: process " + std::to_string(p) + " \"" + name +
         "\" segment " + std::to_string(alert.segment.segment.index) +
         " sos " + fmt::seconds(trace.toSeconds(alert.segment.sosTime)) +
         " z " + fmt::fixed(alert.robustZ, 2);
}

namespace {

/// Throw Error(MalformedEvent) unless a leave of `fn` on rank `p` closes
/// the innermost frame of `stack`.
void requireMatchingLeave(const std::vector<trace::FunctionId>& stack,
                          trace::FunctionId fn, trace::ProcessId p) {
  PERFVAR_REQUIRE_E(!stack.empty() && stack.back() == fn,
                    "unbalanced leave of function ref " + std::to_string(fn) +
                        " on process " + std::to_string(p),
                    ErrorContext::at(ErrorCode::MalformedEvent,
                                     ErrorContext::kNoByteOffset, p));
}

/// Walk every rank of `chunk` without feeding it: each ref must be defined
/// by `defs`, and each leave must close its rank's innermost open frame.
/// `open` holds the frames open before the chunk; when it is null, a leave
/// below the chunk's own frames is not judged.
void checkEvents(const trace::Trace& defs, const trace::Trace& chunk,
                 const std::vector<std::vector<trace::FunctionId>>* open) {
  PERFVAR_REQUIRE(open == nullptr || chunk.processCount() <= open->size(),
                  "invalid process id");
  std::vector<trace::FunctionId> stack;  // reused: one allocation per call
  for (trace::ProcessId p = 0; p < chunk.processCount(); ++p) {
    stack.clear();
    if (open != nullptr) {
      stack.assign((*open)[p].begin(), (*open)[p].end());
    }
    for (const trace::Event& e : chunk.processes[p].events) {
      if (e.kind == trace::EventKind::Enter) {
        trace::requireDefinedRef(e.ref, defs.functions.size(), "function", p);
        stack.push_back(e.ref);
      } else if (e.kind == trace::EventKind::Metric) {
        trace::requireDefinedRef(e.ref, defs.metrics.size(), "metric", p);
      } else if (e.kind == trace::EventKind::Leave &&
                 (open != nullptr || !stack.empty())) {
        requireMatchingLeave(stack, e.ref, p);
        stack.pop_back();
      }
    }
  }
}

}  // namespace

StreamingSos::StreamingSos(const trace::Trace& definitions,
                           trace::FunctionId segmentFunction,
                           const StreamingOptions& options)
    : defs_(&definitions),
      options_(options),
      syncMask_(options.classifier.mask(definitions)),
      stacks_(definitions.processCount()) {
  PERFVAR_REQUIRE(segmentFunction < definitions.functions.size(),
                  "segmentation function is not defined");
  folds_.reserve(definitions.processCount());
  for (trace::ProcessId p = 0; p < definitions.processCount(); ++p) {
    folds_.emplace_back(definitions.functions, definitions.metrics,
                        segmentFunction, syncMask_);
    folds_.back().reset(p);
  }
}

void StreamingSos::onEvent(trace::ProcessId p, const trace::Event& e) {
  PERFVAR_REQUIRE(p < stacks_.size(), "invalid process id");
  std::vector<trace::FunctionId>& stack = stacks_[p];
  detail::SosFold& fold = folds_[p];
  switch (e.kind) {
    case trace::EventKind::Enter:
      fold.enter(e.ref, e.time);
      stack.push_back(e.ref);
      break;
    case trace::EventKind::Leave: {
      requireMatchingLeave(stack, e.ref, p);
      stack.pop_back();
      if (!fold.leave(e.ref, e.time)) {
        break;
      }
      // A segment completed: run the online monitor, then the sinks.
      const SegmentAnalysis segment = fold.takeSegment();
      ++completed_;
      const double sosSeconds = defs_->toSeconds(segment.sosTime);
      if (onAlert_ && sosHistory_.size() >= options_.warmupSegments) {
        const double z =
            stats::robustZSorted(sosSeconds, sortedSosHistory_, sosHistory_);
        if (z >= options_.alertThreshold) {
          onAlert_(StreamingAlert{segment, z});
        }
      }
      sosHistory_.push_back(sosSeconds);
      sortedSosHistory_.insert(std::upper_bound(sortedSosHistory_.begin(),
                                                sortedSosHistory_.end(),
                                                sosSeconds),
                               sosSeconds);
      if (onSegment_) {
        onSegment_(segment);
      }
      break;
    }
    case trace::EventKind::Metric:
      fold.metric(e);
      break;
    case trace::EventKind::MpiSend:
    case trace::EventKind::MpiRecv:
      break;  // messages carry no SOS information beyond their frames
  }
}

void StreamingSos::finish() {
  for (trace::ProcessId p = 0; p < stacks_.size(); ++p) {
    PERFVAR_REQUIRE(stacks_[p].empty(),
                    "streaming: process " + std::to_string(p) +
                        " has unclosed frames at finish");
  }
}

void StreamingSos::checkChunk(const trace::Trace& chunk) {
  checkEvents(chunk, chunk, nullptr);
}

void StreamingSos::feed(const trace::Trace& tr) {
  checkEvents(*defs_, tr, &stacks_);
  // Interleave the per-process streams in global time order (stable by
  // process id), as a live measurement system would deliver them, through
  // a min-heap on (time, process).
  struct Cursor {
    trace::Timestamp time;
    trace::ProcessId process;
    std::size_t index;
  };
  const auto later = [](const Cursor& a, const Cursor& b) {
    return a.time > b.time || (a.time == b.time && a.process > b.process);
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(later)> heap(later);
  for (trace::ProcessId p = 0; p < tr.processes.size(); ++p) {
    if (!tr.processes[p].events.empty()) {
      heap.push(Cursor{tr.processes[p].events.front().time, p, 0});
    }
  }
  while (!heap.empty()) {
    Cursor cursor = heap.top();
    heap.pop();
    const auto& events = tr.processes[cursor.process].events;
    onEvent(cursor.process, events[cursor.index]);
    if (++cursor.index < events.size()) {
      cursor.time = events[cursor.index].time;
      heap.push(cursor);
    }
  }
}

void StreamingSos::replay(const trace::Trace& tr, StreamingSos& analyzer) {
  analyzer.feed(tr);
  analyzer.finish();
}

}  // namespace perfvar::analysis
