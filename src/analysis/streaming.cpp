#include "analysis/streaming.hpp"

#include <algorithm>
#include <queue>

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

StreamingSos::StreamingSos(const trace::Trace& definitions,
                           trace::FunctionId segmentFunction,
                           const StreamingOptions& options)
    : defs_(&definitions),
      segmentFunction_(segmentFunction),
      options_(options) {
  PERFVAR_REQUIRE(segmentFunction < definitions.functions.size(),
                  "segmentation function is not defined");
  syncMask_ = options_.classifier.mask(definitions);
  states_.resize(definitions.processCount());
  for (auto& st : states_) {
    st.lastMetric.assign(definitions.metrics.size(), 0.0);
    st.seenMetric.assign(definitions.metrics.size(), false);
  }
}

void StreamingSos::completeSegment(trace::ProcessId p,
                                   trace::Timestamp leaveTime) {
  ProcessState& st = states_[p];
  st.current.segment.process = p;
  st.current.segment.index = st.segmentsDone++;
  st.current.segment.enter = st.segStart;
  st.current.segment.leave = leaveTime;
  const trace::Timestamp duration = st.current.segment.inclusive();
  PERFVAR_ASSERT(st.current.syncTime <= duration,
                 "sync time exceeds segment duration");
  st.current.sosTime = duration - st.current.syncTime;
  ++completed_;

  const double sosSeconds = defs_->toSeconds(st.current.sosTime);
  if (onAlert_ && sosHistory_.size() >= options_.warmupSegments) {
    const double z =
        stats::robustZSorted(sosSeconds, sortedSosHistory_, sosHistory_);
    if (z >= options_.alertThreshold) {
      onAlert_(StreamingAlert{st.current, z});
    }
  }
  sosHistory_.push_back(sosSeconds);
  sortedSosHistory_.insert(std::upper_bound(sortedSosHistory_.begin(),
                                            sortedSosHistory_.end(),
                                            sosSeconds),
                           sosSeconds);

  if (onSegment_) {
    onSegment_(st.current);
  }
  st.current = SegmentAnalysis{};
}

void StreamingSos::onEvent(trace::ProcessId p, const trace::Event& e) {
  PERFVAR_REQUIRE(p < states_.size(), "invalid process id");
  ProcessState& st = states_[p];
  switch (e.kind) {
    case trace::EventKind::Enter: {
      const trace::FunctionId fn = e.ref;
      PERFVAR_REQUIRE(fn < defs_->functions.size(), "undefined function");
      if (fn == segmentFunction_) {
        if (st.segNesting == 0) {
          st.current = SegmentAnalysis{};
          st.current.metricDelta.assign(defs_->metrics.size(), 0.0);
          st.segStart = e.time;
        }
        ++st.segNesting;
      }
      if (st.segNesting > 0) {
        const auto par = static_cast<std::size_t>(
            defs_->functions.at(fn).paradigm);
        if (st.paradigmNesting[par]++ == 0) {
          st.paradigmStart[par] = e.time;
        }
        if (syncMask_[fn] && st.syncNesting++ == 0) {
          st.syncStart = e.time;
        }
      }
      st.stack.push_back(fn);
      break;
    }
    case trace::EventKind::Leave: {
      PERFVAR_REQUIRE(!st.stack.empty() && st.stack.back() == e.ref,
                      "streaming: unbalanced enter/leave");
      st.stack.pop_back();
      const trace::FunctionId fn = e.ref;
      if (st.segNesting > 0) {
        const auto par = static_cast<std::size_t>(
            defs_->functions.at(fn).paradigm);
        PERFVAR_ASSERT(st.paradigmNesting[par] > 0,
                       "paradigm nesting underflow");
        if (--st.paradigmNesting[par] == 0) {
          st.current.paradigmTime[par] += e.time - st.paradigmStart[par];
        }
        if (syncMask_[fn]) {
          PERFVAR_ASSERT(st.syncNesting > 0, "sync nesting underflow");
          if (--st.syncNesting == 0) {
            st.current.syncTime += e.time - st.syncStart;
          }
        }
      }
      if (fn == segmentFunction_) {
        PERFVAR_ASSERT(st.segNesting > 0, "segment nesting underflow");
        if (--st.segNesting == 0) {
          completeSegment(p, e.time);
        }
      }
      break;
    }
    case trace::EventKind::Metric: {
      const trace::MetricId m = e.ref;
      PERFVAR_REQUIRE(m < defs_->metrics.size(), "undefined metric");
      if (st.segNesting > 0 && !st.current.metricDelta.empty()) {
        if (defs_->metrics.at(m).mode == trace::MetricMode::Accumulated) {
          const double base = st.seenMetric[m] ? st.lastMetric[m] : 0.0;
          st.current.metricDelta[m] += e.value - base;
        } else {
          st.current.metricDelta[m] = e.value;
        }
      }
      st.lastMetric[m] = e.value;
      st.seenMetric[m] = true;
      break;
    }
    case trace::EventKind::MpiSend:
    case trace::EventKind::MpiRecv:
      break;  // messages carry no SOS information beyond their frames
  }
}

void StreamingSos::finish() {
  for (trace::ProcessId p = 0; p < states_.size(); ++p) {
    PERFVAR_REQUIRE(states_[p].stack.empty(),
                    "streaming: process " + std::to_string(p) +
                        " has unclosed frames at finish");
  }
}

void StreamingSos::feed(const trace::Trace& tr) {
  // Interleave the per-process streams in global time order (stable by
  // process id), as a live measurement system would deliver them. A
  // min-heap on (time, process) delivers the exact pop order of the
  // former linear scan — the minimum over all cursors with the process id
  // as tie-break — at O(log P) instead of O(P) per event.
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
