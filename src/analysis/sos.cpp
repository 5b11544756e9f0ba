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

template <typename Ticks>
std::vector<double> perIterationMean(
    const std::vector<std::vector<SegmentAnalysis>>& perProcess, std::size_t n,
    double scale, Ticks ticks) {
  std::vector<double> out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    std::size_t count = 0;
    for (const auto& per : perProcess) {
      if (i < per.size()) {
        sum += static_cast<double>(ticks(per[i]));
        ++count;
      }
    }
    out[i] = count > 0 ? sum / (scale * static_cast<double>(count)) : 0.0;
  }
  return out;
}

}  // namespace

std::vector<double> SosResult::meanDurationPerIteration() const {
  return perIterationMean(perProcess_, maxSegmentsPerProcess(),
                          static_cast<double>(view_.resolution()),
                          [](const SegmentAnalysis& a) {
                            return a.segment.inclusive();
                          });
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

/// The metric-delta rule: sample `e` of rank `p` adds an accumulated
/// metric's change since the rank's previous sample (`last`, zero before
/// the first) to `delta`, or sets an absolute metric's value there, then
/// becomes the baseline. A null `delta` (outside any segment) skips that.
void foldMetricSample(const trace::MetricRegistry& metrics,
                      trace::ProcessId p, const trace::Event& e,
                      std::vector<double>& last, std::vector<double>* delta) {
  const trace::MetricId m = e.ref;
  trace::requireDefinedRef(m, metrics.size(), "metric", p);
  if (delta != nullptr) {
    if (metrics.at(m).mode == trace::MetricMode::Accumulated) {
      (*delta)[m] += e.value - last[m];
    } else {
      (*delta)[m] = e.value;
    }
  }
  last[m] = e.value;
}

}  // namespace

namespace detail {

void SosFold::reset(trace::ProcessId p) {
  process_ = p;
  segmentsDone_ = 0;
  segNesting_ = 0;
  syncNesting_ = 0;
  paradigmNesting_ = {};
  lastMetric_.assign(metrics_->size(), 0.0);
}

void SosFold::enter(trace::FunctionId fn, trace::Timestamp t) {
  trace::requireDefinedRef(fn, functions_->size(), "function", process_);
  if (fn == segmentFunction_ && segNesting_++ == 0) {
    current_ = SegmentAnalysis{};
    current_.metricDelta.assign(metrics_->size(), 0.0);
    segStart_ = t;
  }
  if (segNesting_ == 0) {
    return;
  }
  const auto par = static_cast<std::size_t>(functions_->at(fn).paradigm);
  if (paradigmNesting_[par]++ == 0) {
    paradigmStart_[par] = t;
  }
  if ((*syncMask_)[fn] && syncNesting_++ == 0) {
    syncStart_ = t;
  }
}

bool SosFold::leave(trace::FunctionId fn, trace::Timestamp t) {
  if (segNesting_ == 0) {
    return false;
  }
  const auto par = static_cast<std::size_t>(functions_->at(fn).paradigm);
  PERFVAR_ASSERT(paradigmNesting_[par] > 0, "paradigm nesting underflow");
  if (--paradigmNesting_[par] == 0) {
    current_.paradigmTime[par] += t - paradigmStart_[par];
  }
  if ((*syncMask_)[fn]) {
    PERFVAR_ASSERT(syncNesting_ > 0, "sync nesting underflow");
    if (--syncNesting_ == 0) {
      current_.syncTime += t - syncStart_;
    }
  }
  if (fn != segmentFunction_ || --segNesting_ > 0) {
    return false;
  }
  current_.segment.process = process_;
  current_.segment.index = segmentsDone_++;
  current_.segment.enter = segStart_;
  current_.segment.leave = t;
  const trace::Timestamp duration = current_.segment.inclusive();
  PERFVAR_ASSERT(current_.syncTime <= duration,
                 "sync time exceeds segment duration");
  current_.sosTime = duration - current_.syncTime;
  return true;
}

void SosFold::metric(const trace::Event& e) {
  foldMetricSample(*metrics_, process_, e, lastMetric_,
                   segNesting_ > 0 ? &current_.metricDelta : nullptr);
}

namespace {

/// Replay visitor driving the fold: plain member functions, so the walk
/// inlines them (no std::function dispatch per event).
struct SosFoldVisitor {
  SosFold& fold;
  std::vector<SegmentAnalysis>& segments;

  void onEnter(trace::FunctionId fn, trace::Timestamp t, std::size_t) {
    fold.enter(fn, t);
  }
  void onLeave(const trace::Frame& frame) {
    if (fold.leave(frame.function, frame.leaveTime)) {
      segments.push_back(fold.takeSegment());
    }
  }
  void onMessage(bool, const trace::Event&) {}
  void onMetric(const trace::Event& e, std::size_t) { fold.metric(e); }
};

}  // namespace

std::vector<SegmentAnalysis> analyzeSosProcess(const trace::TraceView& tr,
                                               trace::ProcessId p,
                                               SosFold& fold) {
  PERFVAR_REQUIRE(p < tr.processCount(), "invalid process id");
  fold.reset(p);
  std::vector<SegmentAnalysis> segments;
  const trace::RankPin pin = tr.rank(p);
  // A segment costs at least an enter/leave pair; clamp the guess so a
  // pathological rank cannot reserve unbounded memory up front.
  segments.reserve(std::min<std::size_t>(pin.events().size() / 2, 4096));
  trace::replayEventsWith(pin.events(), SosFoldVisitor{fold, segments});
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
        // One fold per range: ranks after the first reuse its buffers.
        detail::SosFold fold(tr.functions(), tr.metrics(), segmentFunction,
                             syncMask);
        for (std::size_t p = begin; p < end; ++p) {
          perProcess[p] = detail::analyzeSosProcess(
              tr, static_cast<trace::ProcessId>(p), fold);
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
    std::size_t syncNesting = 0;
    trace::Timestamp syncStart = 0;
    std::vector<double> lastMetric(nMetrics, 0.0);

    trace::ReplayVisitor v;
    v.onEnter = [&](trace::FunctionId fn, trace::Timestamp t, std::size_t) {
      trace::requireDefinedRef(fn, syncMask.size(), "function", p);
      if (syncMask[fn] && syncNesting++ == 0) {
        syncStart = t;
      }
    };
    // A maximal sync frame adds its overlap with each window it spans.
    v.onLeave = [&](const trace::Frame& frame) {
      if (!syncMask[frame.function]) {
        return;
      }
      PERFVAR_ASSERT(syncNesting > 0, "sync nesting underflow");
      const trace::Timestamp b = frame.leaveTime;
      if (--syncNesting > 0 || b <= syncStart) {
        return;
      }
      for (std::size_t w = windowOf(syncStart); w < windows; ++w) {
        SegmentAnalysis& seg = segs[w];
        const trace::Timestamp lo = std::max(syncStart, seg.segment.enter);
        const trace::Timestamp hi = std::min(b, seg.segment.leave);
        if (hi > lo) {
          seg.syncTime += hi - lo;
          seg.paradigmTime[static_cast<std::size_t>(trace::Paradigm::MPI)] +=
              hi - lo;
        }
        if (seg.segment.leave >= b) {
          break;
        }
      }
    };
    v.onMetric = [&](const trace::Event& e, std::size_t) {
      foldMetricSample(tr.metrics(), p, e, lastMetric,
                       &segs[windowOf(e.time)].metricDelta);
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
