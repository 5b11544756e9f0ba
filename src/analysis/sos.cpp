#include "analysis/sos.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "trace/replay.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace perfvar::analysis {

SosResult::SosResult(const trace::TraceView& tr,
                     trace::FunctionId segmentFunction,
                     std::vector<std::vector<SegmentAnalysis>> perProcess)
    : view_(tr),
      segmentFunction_(segmentFunction),
      perProcess_(std::move(perProcess)) {
  PERFVAR_REQUIRE(perProcess_.size() == tr.processCount(),
                  "per-process result size mismatch");
}

const std::vector<SegmentAnalysis>& SosResult::process(
    trace::ProcessId p) const {
  PERFVAR_REQUIRE(p < perProcess_.size(), "invalid process id");
  return perProcess_[p];
}

std::size_t SosResult::maxSegmentsPerProcess() const {
  std::size_t n = 0;
  for (const auto& per : perProcess_) {
    n = std::max(n, per.size());
  }
  return n;
}

std::size_t SosResult::minSegmentsPerProcess() const {
  if (perProcess_.empty()) {
    return 0;
  }
  std::size_t n = perProcess_.front().size();
  for (const auto& per : perProcess_) {
    n = std::min(n, per.size());
  }
  return n;
}

double SosResult::sosSeconds(trace::ProcessId p, std::size_t i) const {
  const auto& per = process(p);
  PERFVAR_REQUIRE(i < per.size(), "invalid segment index");
  return view_.toSeconds(per[i].sosTime);
}

double SosResult::durationSeconds(trace::ProcessId p, std::size_t i) const {
  const auto& per = process(p);
  PERFVAR_REQUIRE(i < per.size(), "invalid segment index");
  return view_.toSeconds(per[i].segment.inclusive());
}

namespace {

std::vector<std::vector<double>> denseMatrix(
    const std::vector<std::vector<SegmentAnalysis>>& perProcess,
    std::size_t columns,
    const std::function<double(const SegmentAnalysis&)>& value) {
  std::vector<std::vector<double>> m(
      perProcess.size(),
      std::vector<double>(columns, std::numeric_limits<double>::quiet_NaN()));
  for (std::size_t p = 0; p < perProcess.size(); ++p) {
    for (std::size_t i = 0; i < perProcess[p].size() && i < columns; ++i) {
      m[p][i] = value(perProcess[p][i]);
    }
  }
  return m;
}

}  // namespace

std::vector<std::vector<double>> SosResult::sosMatrixSeconds() const {
  const double res = static_cast<double>(view_.resolution());
  return denseMatrix(perProcess_, maxSegmentsPerProcess(),
                     [res](const SegmentAnalysis& a) {
                       return static_cast<double>(a.sosTime) / res;
                     });
}

std::vector<std::vector<double>> SosResult::durationMatrixSeconds() const {
  const double res = static_cast<double>(view_.resolution());
  return denseMatrix(perProcess_, maxSegmentsPerProcess(),
                     [res](const SegmentAnalysis& a) {
                       return static_cast<double>(a.segment.inclusive()) / res;
                     });
}

std::vector<std::vector<double>> SosResult::metricMatrix(
    trace::MetricId m) const {
  PERFVAR_REQUIRE(m < view_.metrics().size(), "invalid metric id");
  return denseMatrix(perProcess_, maxSegmentsPerProcess(),
                     [m](const SegmentAnalysis& a) {
                       return m < a.metricDelta.size() ? a.metricDelta[m] : 0.0;
                     });
}

std::vector<double> SosResult::allSosSeconds() const {
  std::vector<double> out;
  for (const auto& per : perProcess_) {
    for (const auto& a : per) {
      out.push_back(view_.toSeconds(a.sosTime));
    }
  }
  return out;
}

std::vector<double> SosResult::syncFractionPerIteration() const {
  const std::size_t n = maxSegmentsPerProcess();
  std::vector<double> fractions(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double sync = 0.0;
    double total = 0.0;
    for (const auto& per : perProcess_) {
      if (i < per.size()) {
        sync += static_cast<double>(per[i].syncTime);
        total += static_cast<double>(per[i].segment.inclusive());
      }
    }
    fractions[i] = total > 0.0 ? sync / total : 0.0;
  }
  return fractions;
}

namespace {

std::vector<double> perIterationMean(
    const std::vector<std::vector<SegmentAnalysis>>& perProcess, std::size_t n,
    double scale, trace::Timestamp SegmentAnalysis::* field) {
  std::vector<double> out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    std::size_t count = 0;
    for (const auto& per : perProcess) {
      if (i < per.size()) {
        sum += static_cast<double>(per[i].*field);
        ++count;
      }
    }
    out[i] = count > 0 ? sum / (scale * static_cast<double>(count)) : 0.0;
  }
  return out;
}

}  // namespace

std::vector<double> SosResult::meanDurationPerIteration() const {
  const std::size_t n = maxSegmentsPerProcess();
  std::vector<double> out(n, 0.0);
  const double res = static_cast<double>(view_.resolution());
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    std::size_t count = 0;
    for (const auto& per : perProcess_) {
      if (i < per.size()) {
        sum += static_cast<double>(per[i].segment.inclusive());
        ++count;
      }
    }
    out[i] = count > 0 ? sum / (res * static_cast<double>(count)) : 0.0;
  }
  return out;
}

std::vector<double> SosResult::meanSosPerIteration() const {
  return perIterationMean(perProcess_, maxSegmentsPerProcess(),
                          static_cast<double>(view_.resolution()),
                          &SegmentAnalysis::sosTime);
}

std::vector<double> SosResult::totalSosPerProcess() const {
  std::vector<double> out(perProcess_.size(), 0.0);
  for (std::size_t p = 0; p < perProcess_.size(); ++p) {
    trace::Timestamp sum = 0;
    for (const auto& a : perProcess_[p]) {
      sum += a.sosTime;
    }
    out[p] = view_.toSeconds(sum);
  }
  return out;
}

std::vector<double> SosResult::totalMetricPerProcess(trace::MetricId m) const {
  PERFVAR_REQUIRE(m < view_.metrics().size(), "invalid metric id");
  std::vector<double> out(perProcess_.size(), 0.0);
  for (std::size_t p = 0; p < perProcess_.size(); ++p) {
    for (const auto& a : perProcess_[p]) {
      if (m < a.metricDelta.size()) {
        out[p] += a.metricDelta[m];
      }
    }
  }
  return out;
}

namespace {

/// Statically-typed replay visitor of the SOS hot loop: every callback is
/// a plain member function so the replay walk inlines it (no std::function
/// dispatch per event).
struct SosProcessVisitor {
  const trace::TraceView& tr;
  trace::ProcessId p;
  trace::FunctionId segmentFunction;
  const std::vector<bool>& syncMask;
  std::size_t nMetrics;
  std::vector<SegmentAnalysis>& segments;
  detail::SosScratch& scratch;

  std::size_t segNesting = 0;     // nesting inside the segment function
  trace::Timestamp segStart = 0;  // enter of the outermost invocation
  SegmentAnalysis current{};      // accumulators of the open segment
  std::size_t syncNesting = 0;    // nesting inside sync functions
  trace::Timestamp syncStart = 0;
  std::array<std::size_t, kParadigmCount> paradigmNesting{};
  std::array<trace::Timestamp, kParadigmCount> paradigmStart{};

  void onEnter(trace::FunctionId fn, trace::Timestamp t, std::size_t) {
    trace::requireDefinedRef(fn, syncMask.size(), "function", p);
    if (fn == segmentFunction) {
      if (segNesting == 0) {
        current = SegmentAnalysis{};
        current.metricDelta.assign(nMetrics, 0.0);
        segStart = t;
      }
      ++segNesting;
    }
    if (segNesting > 0) {
      const auto& def = tr.functions().at(fn);
      const auto par = static_cast<std::size_t>(def.paradigm);
      if (paradigmNesting[par]++ == 0) {
        paradigmStart[par] = t;
      }
      if (syncMask[fn]) {
        if (syncNesting++ == 0) {
          syncStart = t;
        }
      }
    }
  }

  void onLeave(const trace::Frame& frame) {
    if (segNesting > 0) {
      const auto& def = tr.functions().at(frame.function);
      const auto par = static_cast<std::size_t>(def.paradigm);
      PERFVAR_ASSERT(paradigmNesting[par] > 0, "paradigm nesting underflow");
      if (--paradigmNesting[par] == 0) {
        current.paradigmTime[par] += frame.leaveTime - paradigmStart[par];
      }
      if (syncMask[frame.function]) {
        PERFVAR_ASSERT(syncNesting > 0, "sync nesting underflow");
        if (--syncNesting == 0) {
          current.syncTime += frame.leaveTime - syncStart;
        }
      }
    }
    if (frame.function == segmentFunction) {
      PERFVAR_ASSERT(segNesting > 0, "segment nesting underflow");
      if (--segNesting == 0) {
        current.segment.process = p;
        current.segment.index = static_cast<std::uint32_t>(segments.size());
        current.segment.enter = segStart;
        current.segment.leave = frame.leaveTime;
        const trace::Timestamp duration = current.segment.inclusive();
        PERFVAR_ASSERT(current.syncTime <= duration,
                       "sync time exceeds segment duration");
        current.sosTime = duration - current.syncTime;
        segments.push_back(std::move(current));
        current = SegmentAnalysis{};
      }
    }
  }

  void onMessage(bool, const trace::Event&) {}

  void onMetric(const trace::Event& e, std::size_t) {
    const trace::MetricId m = e.ref;
    trace::requireDefinedRef(m, nMetrics, "metric", p);
    const bool accumulated =
        tr.metrics().at(m).mode == trace::MetricMode::Accumulated;
    if (segNesting > 0 && !current.metricDelta.empty()) {
      if (accumulated) {
        const double base = scratch.seenMetric[m] ? scratch.lastMetric[m] : 0.0;
        current.metricDelta[m] += e.value - base;
      } else {
        current.metricDelta[m] = e.value;
      }
    }
    scratch.lastMetric[m] = e.value;
    scratch.seenMetric[m] = true;
  }
};

}  // namespace

namespace detail {

std::vector<SegmentAnalysis> analyzeSosProcess(
    const trace::TraceView& tr, trace::ProcessId p,
    trace::FunctionId segmentFunction, const std::vector<bool>& syncMask,
    SosScratch& scratch) {
  PERFVAR_REQUIRE(p < tr.processCount(), "invalid process id");
  const std::size_t nMetrics = tr.metrics().size();
  scratch.lastMetric.assign(nMetrics, 0.0);
  scratch.seenMetric.assign(nMetrics, false);
  std::vector<SegmentAnalysis> segments;
  const trace::RankPin pin = tr.rank(p);
  // A segment costs at least an enter/leave pair; clamp the guess so a
  // pathological rank cannot reserve unbounded memory up front.
  segments.reserve(std::min<std::size_t>(pin.events().size() / 2, 4096));
  SosProcessVisitor visitor{tr,       p,       segmentFunction, syncMask,
                            nMetrics, segments, scratch};
  trace::replayEventsWith(pin.events(), visitor);
  return segments;
}

}  // namespace detail

SosResult analyzeSos(const trace::TraceView& tr,
                     trace::FunctionId segmentFunction,
                     const SyncClassifier& classifier,
                     util::ThreadPool* pool) {
  PERFVAR_REQUIRE(segmentFunction < tr.functions().size(),
                  "segmentation function is not defined in this trace");
  const std::vector<bool> syncMask = classifier.mask(tr);
  std::vector<std::vector<SegmentAnalysis>> perProcess(tr.processCount());
  util::parallelChunks(
      pool, tr.processCount(), [&](std::size_t begin, std::size_t end) {
        // One scratch per range: the metric-state buffers are sized by
        // the (fixed) metric count, so ranks after the first reuse the
        // allocation instead of repeating it.
        detail::SosScratch scratch;
        for (std::size_t p = begin; p < end; ++p) {
          perProcess[p] = detail::analyzeSosProcess(
              tr, static_cast<trace::ProcessId>(p), segmentFunction,
              syncMask, scratch);
        }
      });
  return SosResult(tr, segmentFunction, std::move(perProcess));
}

SosResult analyzeSegmentDurations(const trace::TraceView& tr,
                                  trace::FunctionId segmentFunction) {
  return analyzeSos(tr, segmentFunction, SyncClassifier::none());
}

SosResult analyzeSosWindows(const trace::TraceView& tr,
                            trace::Timestamp windowTicks,
                            const SyncClassifier& classifier) {
  PERFVAR_REQUIRE(windowTicks > 0, "window length must be positive");
  const trace::Timestamp start = tr.startTime();
  const trace::Timestamp end = tr.endTime();
  PERFVAR_REQUIRE(end > start, "trace has no time span");
  const std::size_t windows = static_cast<std::size_t>(
      (end - start + windowTicks - 1) / windowTicks);
  PERFVAR_REQUIRE(windows <= (1u << 24), "too many windows");
  const std::vector<bool> syncMask = classifier.mask(tr);
  const std::size_t nMetrics = tr.metrics().size();

  std::vector<std::vector<SegmentAnalysis>> perProcess(tr.processCount());
  for (trace::ProcessId p = 0; p < tr.processCount(); ++p) {
    auto& segs = perProcess[p];
    segs.resize(windows);
    for (std::size_t w = 0; w < windows; ++w) {
      auto& seg = segs[w];
      seg.segment.process = p;
      seg.segment.index = static_cast<std::uint32_t>(w);
      seg.segment.enter = start + static_cast<trace::Timestamp>(w) *
                                      windowTicks;
      seg.segment.leave =
          std::min(end, seg.segment.enter + windowTicks);
      seg.metricDelta.assign(nMetrics, 0.0);
    }

    const auto windowOf = [&](trace::Timestamp t) {
      return std::min(windows - 1,
                      static_cast<std::size_t>((t - start) / windowTicks));
    };
    // Distribute an interval's overlap over the windows it spans.
    const auto addInterval = [&](trace::Timestamp a, trace::Timestamp b,
                                 auto&& apply) {
      if (b <= a) {
        return;
      }
      for (std::size_t w = windowOf(a); w < windows; ++w) {
        const auto& seg = segs[w].segment;
        const trace::Timestamp lo = std::max(a, seg.enter);
        const trace::Timestamp hi = std::min(b, seg.leave);
        if (hi > lo) {
          apply(segs[w], hi - lo);
        }
        if (seg.leave >= b) {
          break;
        }
      }
    };

    std::size_t syncNesting = 0;
    trace::Timestamp syncStart = 0;
    std::vector<double> lastMetric(nMetrics, 0.0);
    std::vector<bool> seenMetric(nMetrics, false);

    trace::ReplayVisitor v;
    v.onEnter = [&](trace::FunctionId fn, trace::Timestamp t, std::size_t) {
      trace::requireDefinedRef(fn, syncMask.size(), "function", p);
      if (syncMask[fn] && syncNesting++ == 0) {
        syncStart = t;
      }
    };
    v.onLeave = [&](const trace::Frame& frame) {
      if (syncMask[frame.function]) {
        PERFVAR_ASSERT(syncNesting > 0, "sync nesting underflow");
        if (--syncNesting == 0) {
          addInterval(syncStart, frame.leaveTime,
                      [](SegmentAnalysis& seg, trace::Timestamp ticks) {
                        seg.syncTime += ticks;
                        seg.paradigmTime[static_cast<std::size_t>(
                            trace::Paradigm::MPI)] += ticks;
                      });
        }
      }
    };
    v.onMetric = [&](const trace::Event& e, std::size_t) {
      const trace::MetricId m = e.ref;
      trace::requireDefinedRef(m, nMetrics, "metric", p);
      auto& seg = segs[windowOf(e.time)];
      if (tr.metrics().at(m).mode == trace::MetricMode::Accumulated) {
        const double base = seenMetric[m] ? lastMetric[m] : 0.0;
        seg.metricDelta[m] += e.value - base;
      } else {
        seg.metricDelta[m] = e.value;
      }
      lastMetric[m] = e.value;
      seenMetric[m] = true;
    };
    const trace::RankPin pin = tr.rank(p);
    trace::replayEvents(pin.events(), v);

    for (auto& seg : segs) {
      const trace::Timestamp duration = seg.segment.inclusive();
      PERFVAR_ASSERT(seg.syncTime <= duration,
                     "window sync exceeds window span");
      seg.sosTime = duration - seg.syncTime;
    }
  }
  return SosResult(tr, trace::kInvalidFunction, std::move(perProcess));
}

}  // namespace perfvar::analysis
