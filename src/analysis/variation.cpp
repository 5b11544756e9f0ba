#include "analysis/variation.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "util/error.hpp"
#include "util/format.hpp"
#include "util/thread_pool.hpp"

namespace perfvar::analysis {

trace::ProcessId VariationReport::slowestProcess() const {
  PERFVAR_REQUIRE(!processesBySos.empty(), "report has no processes");
  return processesBySos.front();
}

VariationReport analyzeVariation(const SosResult& sos,
                                 const VariationOptions& options,
                                 util::ThreadPool* pool) {
  VariationReport report;
  const auto& perProcess = sos.all();
  const std::size_t nProcs = perProcess.size();
  const std::size_t nIters = sos.maxSegmentsPerProcess();
  const double res = static_cast<double>(sos.trace().resolution());

  // ---- global SOS distribution -------------------------------------------
  const std::vector<double> allSos = sos.allSosSeconds();
  report.sosSummary = stats::summarize(allSos);
  report.sosMedian = stats::median(allSos);
  report.sosMad = stats::mad(allSos);
  const double globalScale = stats::kMadToSigma * report.sosMad;

  const auto globalZ = [&](double x) {
    if (globalScale > 0.0) {
      return (x - report.sosMedian) / globalScale;
    }
    return report.sosSummary.stddev > 0.0
               ? (x - report.sosSummary.mean) / report.sosSummary.stddev
               : 0.0;
  };

  // ---- per-iteration stats ------------------------------------------------
  // Every index writes only its own slot; the inner sums always walk the
  // processes in ascending order, so the result is pool-independent.
  report.iterations.resize(nIters);
  util::parallelChunks(pool, nIters, [&](std::size_t begin,
                                            std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      std::vector<double> iterSos;
      IterationStats is;
      is.iteration = i;
      double durationSum = 0.0;
      double best = -1.0;
      for (std::size_t p = 0; p < nProcs; ++p) {
        if (i < perProcess[p].size()) {
          const auto& a = perProcess[p][i];
          const double v = static_cast<double>(a.sosTime) / res;
          iterSos.push_back(v);
          durationSum += static_cast<double>(a.segment.inclusive()) / res;
          if (v > best) {
            best = v;
            is.slowestProcess = static_cast<trace::ProcessId>(p);
          }
        }
      }
      is.processCount = iterSos.size();
      if (!iterSos.empty()) {
        const auto s = stats::summarize(iterSos);
        is.minSos = s.min;
        is.maxSos = s.max;
        is.meanSos = s.mean;
        is.stddevSos = s.stddev;
        is.meanDuration = durationSum / static_cast<double>(iterSos.size());
        is.imbalance = stats::imbalanceFactor(iterSos);
      }
      report.iterations[i] = is;
    }
  });

  // ---- trends --------------------------------------------------------------
  {
    std::vector<double> meanDur(nIters), meanSos(nIters);
    for (std::size_t i = 0; i < nIters; ++i) {
      meanDur[i] = report.iterations[i].meanDuration;
      meanSos[i] = report.iterations[i].meanSos;
    }
    report.durationTrend = stats::olsTrend(meanDur);
    report.sosTrend = stats::olsTrend(meanSos);
  }

  // ---- per-process stats ----------------------------------------------------
  report.processes.resize(nProcs);
  std::vector<double> totals(nProcs, 0.0);
  util::parallelChunks(pool, nProcs, [&](std::size_t begin,
                                            std::size_t end) {
    for (std::size_t p = begin; p < end; ++p) {
      ProcessStats ps;
      ps.process = static_cast<trace::ProcessId>(p);
      ps.segments = perProcess[p].size();
      for (const auto& a : perProcess[p]) {
        const double v = static_cast<double>(a.sosTime) / res;
        ps.totalSos += v;
        ps.maxSos = std::max(ps.maxSos, v);
      }
      if (ps.segments > 0) {
        ps.meanSos = ps.totalSos / static_cast<double>(ps.segments);
      }
      totals[p] = ps.totalSos;
      report.processes[p] = ps;
    }
  });
  // Leave-one-out scoring: a single extreme process must not dilute its
  // own score by inflating the scale estimate. The batched kernel scores
  // all processes from one shared sort.
  const std::vector<double> totalZ = stats::leaveOneOutZ(totals);
  for (std::size_t p = 0; p < nProcs; ++p) {
    report.processes[p].totalZ = totalZ[p];
  }

  report.processesBySos.resize(nProcs);
  std::iota(report.processesBySos.begin(), report.processesBySos.end(), 0u);
  std::sort(report.processesBySos.begin(), report.processesBySos.end(),
            [&](trace::ProcessId a, trace::ProcessId b) {
              if (totals[a] != totals[b]) {
                return totals[a] > totals[b];
              }
              return a < b;
            });
  for (const trace::ProcessId p : report.processesBySos) {
    if (report.processes[p].totalZ >= options.processThreshold) {
      report.culpritProcesses.push_back(p);
    }
  }

  // ---- hotspots --------------------------------------------------------------
  // Collected per iteration into disjoint slots, then concatenated in
  // iteration order; the final sort key (globalZ, process, iteration) is a
  // total order, so the ranking is independent of the pool.
  std::vector<std::vector<Hotspot>> perIterHotspots(nIters);
  util::parallelChunks(pool, nIters, [&](std::size_t begin,
                                            std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      std::vector<double> iterSos;
      for (std::size_t p = 0; p < nProcs; ++p) {
        if (i < perProcess[p].size()) {
          iterSos.push_back(static_cast<double>(perProcess[p][i].sosTime) /
                            res);
        }
      }
      // Leave-one-out iteration z, batched like the process scoring above;
      // computed lazily because most iterations have no hotspot at all.
      std::vector<double> iterZ;
      bool iterZReady = false;
      std::size_t compactIdx = 0;
      for (std::size_t p = 0; p < nProcs; ++p) {
        if (i >= perProcess[p].size()) {
          continue;
        }
        const std::size_t myIdx = compactIdx++;
        const auto& a = perProcess[p][i];
        const double v = static_cast<double>(a.sosTime) / res;
        const double gz = globalZ(v);
        if (gz >= options.outlierThreshold) {
          Hotspot h;
          h.process = static_cast<trace::ProcessId>(p);
          h.iteration = i;
          h.sosSeconds = v;
          h.durationSeconds = static_cast<double>(a.segment.inclusive()) / res;
          h.globalZ = gz;
          if (!iterZReady) {
            iterZ = stats::leaveOneOutZ(iterSos);
            iterZReady = true;
          }
          h.iterationZ = iterZ[myIdx];
          perIterHotspots[i].push_back(h);
        }
      }
    }
  });
  std::vector<Hotspot> hotspots;
  for (auto& per : perIterHotspots) {
    hotspots.insert(hotspots.end(), per.begin(), per.end());
  }
  std::sort(hotspots.begin(), hotspots.end(),
            [](const Hotspot& a, const Hotspot& b) {
              if (a.globalZ != b.globalZ) {
                return a.globalZ > b.globalZ;
              }
              if (a.process != b.process) {
                return a.process < b.process;
              }
              return a.iteration < b.iteration;
            });
  if (hotspots.size() > options.maxHotspots) {
    hotspots.resize(options.maxHotspots);
  }
  report.hotspots = std::move(hotspots);
  return report;
}

std::string formatVariationReport(const SosResult& sos,
                                  const VariationReport& report,
                                  std::size_t maxRows) {
  std::ostringstream os;
  const auto& tr = sos.trace();
  os << "segmentation function: "
     << (sos.segmentFunction() == trace::kInvalidFunction
             ? std::string("(fixed time windows)")
             : tr.functions().name(sos.segmentFunction()))
     << "\n";
  os << "segments: " << report.sosSummary.count << " across "
     << report.processes.size() << " processes\n";
  os << "SOS-time: median " << fmt::seconds(report.sosMedian) << ", mean "
     << fmt::seconds(report.sosSummary.mean) << ", max "
     << fmt::seconds(report.sosSummary.max) << "\n";
  os << "duration trend: " << fmt::seconds(report.durationTrend.slope)
     << "/iteration (r2 " << fmt::fixed(report.durationTrend.r2, 2) << ")\n";
  os << "SOS trend:      " << fmt::seconds(report.sosTrend.slope)
     << "/iteration (r2 " << fmt::fixed(report.sosTrend.r2, 2) << ")\n";

  if (!report.culpritProcesses.empty()) {
    os << "culprit processes (robust z of total SOS >= threshold):\n";
    for (const auto p : report.culpritProcesses) {
      const auto& ps = report.processes[p];
      os << "  " << tr.processName(p) << "  total "
         << fmt::seconds(ps.totalSos) << "  z " << fmt::fixed(ps.totalZ, 2)
         << "\n";
    }
  } else {
    os << "no culprit process stands out at the process level\n";
  }

  if (!report.hotspots.empty()) {
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"process", "iteration", "SOS", "duration", "global z",
                    "iteration z"});
    for (std::size_t i = 0; i < std::min(maxRows, report.hotspots.size());
         ++i) {
      const Hotspot& h = report.hotspots[i];
      rows.push_back({tr.processName(h.process),
                      std::to_string(h.iteration), fmt::seconds(h.sosSeconds),
                      fmt::seconds(h.durationSeconds),
                      fmt::fixed(h.globalZ, 2), fmt::fixed(h.iterationZ, 2)});
    }
    os << "top hotspots:\n" << fmt::table(rows);
    if (report.hotspots.size() > maxRows) {
      os << "... " << (report.hotspots.size() - maxRows)
         << " more hotspot(s)\n";
    }
  } else {
    os << "no segment-level hotspots above threshold\n";
  }
  return os.str();
}

}  // namespace perfvar::analysis
