#include "analysis/patterns.hpp"

#include <algorithm>
#include <array>

#include "trace/replay.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

#include <sstream>

namespace perfvar::analysis {

namespace {

constexpr std::size_t kPatternCount = 2;

bool isCollectiveName(const std::string& name) {
  static const std::array<const char*, 15> kCollectives = {
      "MPI_Barrier",   "MPI_Bcast",         "MPI_Reduce",
      "MPI_Allreduce", "MPI_Gather",        "MPI_Allgather",
      "MPI_Scatter",   "MPI_Alltoall",      "MPI_Scan",
      "MPI_Exscan",    "MPI_Reduce_scatter", "MPI_Gatherv",
      "MPI_Scatterv",  "MPI_Allgatherv",    "MPI_Alltoallv"};
  for (const char* c : kCollectives) {
    if (name.rfind(c, 0) == 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

const char* patternName(PatternKind kind) {
  switch (kind) {
    case PatternKind::WaitAtCollective:
      return "Wait at Collective";
    case PatternKind::LateSender:
      return "Late Sender";
  }
  return "Unknown";
}

double PatternReport::patternTotal(PatternKind kind) const {
  const auto idx = static_cast<std::size_t>(kind);
  PERFVAR_REQUIRE(idx < severityByProcess.size(), "invalid pattern kind");
  double total = 0.0;
  for (const double v : severityByProcess[idx]) {
    total += v;
  }
  return total;
}

trace::ProcessId PatternReport::worstVictim() const {
  PERFVAR_REQUIRE(!severityByProcess.empty() &&
                      !severityByProcess.front().empty(),
                  "empty pattern report");
  const std::size_t procs = severityByProcess.front().size();
  trace::ProcessId worst = 0;
  double worstSeverity = -1.0;
  for (std::size_t p = 0; p < procs; ++p) {
    double sum = 0.0;
    for (const auto& per : severityByProcess) {
      sum += per[p];
    }
    if (sum > worstSeverity) {
      worstSeverity = sum;
      worst = static_cast<trace::ProcessId>(p);
    }
  }
  return worst;
}

PatternReport findWaitStates(const trace::TraceView& tr,
                             const PatternOptions& options) {
  PatternReport report;
  report.severityByProcess.assign(
      kPatternCount, std::vector<double>(tr.processCount(), 0.0));
  const double res = static_cast<double>(tr.resolution());

  const auto record = [&](PatternKind kind, trace::ProcessId p,
                          trace::Timestamp start, double severity,
                          trace::FunctionId fn) {
    if (severity <= 0.0) {
      return;
    }
    report.severityByProcess[static_cast<std::size_t>(kind)][p] += severity;
    report.totalSeverity += severity;
    if (severity >= options.minListedSeverity) {
      report.instances.push_back(PatternInstance{kind, p, start, severity,
                                                 fn});
    }
  };

  // ---- Wait at Collective ----------------------------------------------
  // Collect the collective frames per (function, process) in occurrence
  // order, then analyze round k across processes: the waiting time of a
  // rank is the gap between its own arrival and the last arrival.
  std::vector<bool> isCollective(tr.functions().size(), false);
  for (std::size_t f = 0; f < tr.functions().size(); ++f) {
    const auto& def = tr.functions().at(static_cast<trace::FunctionId>(f));
    isCollective[f] = def.paradigm == trace::Paradigm::MPI &&
                      isCollectiveName(def.name);
  }

  struct CollFrame {
    trace::Timestamp enter;
    trace::Timestamp leave;
  };
  // frames[function][process] -> occurrence-ordered frames.
  std::vector<std::vector<std::vector<CollFrame>>> frames(
      tr.functions().size(),
      std::vector<std::vector<CollFrame>>(tr.processCount()));

  // ---- Late Sender (also gathered in the same replay pass) --------------
  struct RecvWait {
    trace::ProcessId process;
    trace::Timestamp frameEnter;
    trace::Timestamp completed;
    trace::FunctionId function;
  };
  std::vector<RecvWait> recvWaits;

  for (trace::ProcessId p = 0; p < tr.processCount(); ++p) {
    struct Open {
      trace::FunctionId fn;
      trace::Timestamp enter;
    };
    std::vector<Open> stack;
    trace::ReplayVisitor v;
    v.onEnter = [&](trace::FunctionId fn, trace::Timestamp t, std::size_t) {
      trace::requireDefinedRef(fn, isCollective.size(), "function", p);
      stack.push_back(Open{fn, t});
    };
    v.onLeave = [&](const trace::Frame& frame) {
      stack.pop_back();
      if (isCollective[frame.function]) {
        frames[frame.function][p].push_back(
            CollFrame{frame.enterTime, frame.leaveTime});
      }
    };
    v.onMessage = [&](bool isSend, const trace::Event& e) {
      if (isSend || stack.empty()) {
        return;
      }
      // The enclosing frame is the receive operation; the blocking time
      // is the span from posting the receive to message completion.
      const Open& open = stack.back();
      if (tr.functions().at(open.fn).paradigm == trace::Paradigm::MPI &&
          e.time > open.enter) {
        recvWaits.push_back(RecvWait{p, open.enter, e.time, open.fn});
      }
    };
    const trace::RankPin pin = tr.rank(p);
    trace::replayEvents(pin.events(), v);
  }

  for (std::size_t f = 0; f < tr.functions().size(); ++f) {
    if (!isCollective[f]) {
      continue;
    }
    // Participating processes: those with at least one occurrence.
    std::size_t rounds = 0;
    bool first = true;
    for (const auto& per : frames[f]) {
      if (!per.empty()) {
        rounds = first ? per.size() : std::min(rounds, per.size());
        first = false;
      }
    }
    for (std::size_t round = 0; round < rounds; ++round) {
      trace::Timestamp lastArrival = 0;
      for (trace::ProcessId p = 0; p < tr.processCount(); ++p) {
        if (!frames[f][p].empty()) {
          lastArrival = std::max(lastArrival, frames[f][p][round].enter);
        }
      }
      for (trace::ProcessId p = 0; p < tr.processCount(); ++p) {
        if (frames[f][p].empty()) {
          continue;
        }
        const CollFrame& frame = frames[f][p][round];
        const double wait =
            frame.enter < lastArrival
                ? static_cast<double>(lastArrival - frame.enter) / res
                : 0.0;
        record(PatternKind::WaitAtCollective, p, frame.enter, wait,
               static_cast<trace::FunctionId>(f));
      }
    }
  }

  for (const RecvWait& rw : recvWaits) {
    record(PatternKind::LateSender, rw.process, rw.frameEnter,
           static_cast<double>(rw.completed - rw.frameEnter) / res,
           rw.function);
  }

  std::sort(report.instances.begin(), report.instances.end(),
            [](const PatternInstance& a, const PatternInstance& b) {
              if (a.severitySeconds != b.severitySeconds) {
                return a.severitySeconds > b.severitySeconds;
              }
              if (a.process != b.process) {
                return a.process < b.process;
              }
              return a.start < b.start;
            });
  if (report.instances.size() > options.maxInstances) {
    report.instances.resize(options.maxInstances);
  }
  return report;
}

std::string formatPatternReport(const trace::TraceView& tr,
                                const PatternReport& report,
                                std::size_t maxRows) {
  std::ostringstream os;
  os << "total severity: " << fmt::seconds(report.totalSeverity) << '\n';
  for (std::size_t k = 0; k < report.severityByProcess.size(); ++k) {
    const auto kind = static_cast<PatternKind>(k);
    os << patternName(kind) << ": " << fmt::seconds(report.patternTotal(kind))
       << '\n';
  }
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"pattern", "process", "severity", "at"});
  for (std::size_t i = 0; i < std::min(maxRows, report.instances.size());
       ++i) {
    const auto& inst = report.instances[i];
    rows.push_back({patternName(inst.kind),
                    tr.processName(inst.process),
                    fmt::seconds(inst.severitySeconds),
                    fmt::seconds(tr.toSeconds(inst.start))});
  }
  os << fmt::table(rows);
  return os.str();
}

}  // namespace perfvar::analysis
