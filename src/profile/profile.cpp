#include "profile/profile.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/format.hpp"
#include "util/thread_pool.hpp"

namespace perfvar::profile {

void FunctionStats::add(trace::Timestamp inc, trace::Timestamp exc) {
  if (invocations == 0) {
    minInclusive = inc;
    maxInclusive = inc;
  } else {
    minInclusive = std::min(minInclusive, inc);
    maxInclusive = std::max(maxInclusive, inc);
  }
  ++invocations;
  inclusive += inc;
  exclusive += exc;
}

void FunctionStats::merge(const FunctionStats& other) {
  if (other.invocations == 0) {
    return;
  }
  if (invocations == 0) {
    *this = other;
    return;
  }
  invocations += other.invocations;
  inclusive += other.inclusive;
  exclusive += other.exclusive;
  minInclusive = std::min(minInclusive, other.minInclusive);
  maxInclusive = std::max(maxInclusive, other.maxInclusive);
}

namespace {

/// Statically-typed replay visitor of the profile hot loop; the add() on
/// each completed frame inlines into the replay walk. A leave closes an
/// entered frame, so checking refs on enter keeps `row` in bounds.
struct ProfileVisitor {
  std::vector<FunctionStats>& row;
  std::size_t nMetrics;
  trace::ProcessId p;

  void onEnter(trace::FunctionId f, trace::Timestamp, std::size_t) {
    trace::requireDefinedRef(f, row.size(), "function", p);
  }
  void onLeave(const trace::Frame& frame) {
    row[frame.function].add(frame.inclusive(), frame.exclusive());
  }
  void onMessage(bool, const trace::Event&) {}
  void onMetric(const trace::Event& e, std::size_t) {
    trace::requireDefinedRef(e.ref, nMetrics, "metric", p);
  }
};

}  // namespace

std::vector<FunctionStats> FlatProfile::buildProcess(
    const trace::TraceView& tr, trace::ProcessId p) {
  PERFVAR_REQUIRE(p < tr.processCount(), "invalid process id");
  const std::size_t nFuncs = tr.functions().size();
  std::vector<FunctionStats> row(nFuncs);
  for (std::size_t f = 0; f < nFuncs; ++f) {
    row[f].function = static_cast<trace::FunctionId>(f);
  }
  ProfileVisitor visitor{row, tr.metrics().size(), p};
  const trace::RankPin pin = tr.rank(p);
  trace::replayEventsWith(pin.events(), visitor);
  return row;
}

FlatProfile FlatProfile::fromPerProcess(
    const trace::TraceView& tr,
    std::vector<std::vector<FunctionStats>> perProcess) {
  PERFVAR_REQUIRE(perProcess.size() == tr.processCount(),
                  "per-process row count mismatch");
  const std::size_t nFuncs = tr.functions().size();
  FlatProfile profile;
  profile.perProcess_ = std::move(perProcess);
  profile.aggregated_.assign(nFuncs, FunctionStats{});
  for (std::size_t f = 0; f < nFuncs; ++f) {
    profile.aggregated_[f].function = static_cast<trace::FunctionId>(f);
  }
  for (const auto& row : profile.perProcess_) {
    PERFVAR_REQUIRE(row.size() == nFuncs, "per-process row size mismatch");
    for (std::size_t f = 0; f < nFuncs; ++f) {
      profile.aggregated_[f].merge(row[f]);
    }
  }
  return profile;
}

FlatProfile FlatProfile::build(const trace::TraceView& tr,
                               util::ThreadPool* pool) {
  std::vector<std::vector<FunctionStats>> perProcess(tr.processCount());
  util::parallelChunks(pool, tr.processCount(),
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t p = begin; p < end; ++p) {
                           perProcess[p] = buildProcess(
                               tr, static_cast<trace::ProcessId>(p));
                         }
                       });
  return fromPerProcess(tr, std::move(perProcess));
}

const FunctionStats& FlatProfile::process(trace::ProcessId p,
                                          trace::FunctionId f) const {
  PERFVAR_REQUIRE(p < perProcess_.size(), "invalid process id");
  PERFVAR_REQUIRE(f < perProcess_[p].size(), "invalid function id");
  return perProcess_[p][f];
}

const FunctionStats& FlatProfile::aggregated(trace::FunctionId f) const {
  PERFVAR_REQUIRE(f < aggregated_.size(), "invalid function id");
  return aggregated_[f];
}

namespace {

std::vector<FunctionStats> sortedBy(
    const std::vector<FunctionStats>& all,
    trace::Timestamp FunctionStats::* key) {
  std::vector<FunctionStats> out;
  for (const auto& s : all) {
    if (s.invocations > 0) {
      out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end(),
            [&](const FunctionStats& a, const FunctionStats& b) {
              if (a.*key != b.*key) {
                return a.*key > b.*key;
              }
              return a.function < b.function;  // deterministic tie-break
            });
  return out;
}

}  // namespace

std::vector<FunctionStats> FlatProfile::byInclusiveTime() const {
  return sortedBy(aggregated_, &FunctionStats::inclusive);
}

std::vector<trace::Timestamp> FlatProfile::exclusiveTimePerProcess(
    const std::vector<bool>& keep) const {
  PERFVAR_REQUIRE(keep.size() == aggregated_.size(),
                  "keep mask size must equal function count");
  std::vector<trace::Timestamp> out(perProcess_.size(), 0);
  for (std::size_t p = 0; p < perProcess_.size(); ++p) {
    for (std::size_t f = 0; f < keep.size(); ++f) {
      if (keep[f]) {
        out[p] += perProcess_[p][f].exclusive;
      }
    }
  }
  return out;
}

std::string formatTopFunctions(const trace::TraceView& tr,
                               const FlatProfile& profile, std::size_t n) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"function", "group", "paradigm", "invocations", "inclusive",
                  "exclusive"});
  const auto sorted = profile.byInclusiveTime();
  for (std::size_t i = 0; i < std::min(n, sorted.size()); ++i) {
    const FunctionStats& s = sorted[i];
    const trace::FunctionDef& def = tr.functions().at(s.function);
    rows.push_back({def.name, def.group, trace::paradigmName(def.paradigm),
                    std::to_string(s.invocations),
                    fmt::seconds(tr.toSeconds(s.inclusive)),
                    fmt::seconds(tr.toSeconds(s.exclusive))});
  }
  return fmt::table(rows);
}

}  // namespace perfvar::profile
