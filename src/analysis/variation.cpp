#include "analysis/variation.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "util/error.hpp"
#include "util/format.hpp"
#include "util/thread_pool.hpp"

namespace perfvar::analysis {

trace::ProcessId VariationStats::slowestProcess() const {
  PERFVAR_REQUIRE(!processesBySos.empty(), "report has no processes");
  return processesBySos.front();
}

VariationBasis variationBasis(const SosResult& sos, util::ThreadPool* pool) {
  VariationBasis basis;
  const auto& perProcess = sos.all();
  const std::size_t nProcs = perProcess.size();
  const std::size_t nIters = sos.maxSegmentsPerProcess();
  const double res = static_cast<double>(sos.trace().resolution());

  // ---- global SOS distribution -------------------------------------------
  const std::vector<double> allSos = sos.allSosSeconds();
  basis.sosSummary = stats::summarize(allSos);
  basis.sosMedian = stats::median(allSos);
  basis.sosMad = stats::mad(allSos);
  const double globalScale = stats::kMadToSigma * basis.sosMad;

  const auto globalZ = [&](double x) {
    if (globalScale > 0.0) {
      return (x - basis.sosMedian) / globalScale;
    }
    return basis.sosSummary.stddev > 0.0
               ? (x - basis.sosSummary.mean) / basis.sosSummary.stddev
               : 0.0;
  };

  // ---- per-iteration stats and leave-one-out z ----------------------------
  // Process p's segments start at processBegin[p] of the z-vectors.
  std::vector<std::size_t> processBegin(nProcs + 1, 0);
  for (std::size_t p = 0; p < nProcs; ++p) {
    processBegin[p + 1] = processBegin[p] + perProcess[p].size();
  }
  basis.iterations.resize(nIters);
  basis.globalZ.resize(processBegin[nProcs]);
  basis.iterationZ.resize(processBegin[nProcs]);
  // Every index writes only its own slots; the inner loops always walk
  // the processes in ascending order, so the basis is pool-independent.
  util::parallelChunks(pool, nIters, [&](std::size_t begin,
                                            std::size_t end) {
    std::vector<double> iterSos;
    for (std::size_t i = begin; i < end; ++i) {
      iterSos.clear();
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
      basis.iterations[i] = is;
      // Leave-one-out like the process scoring below.
      const std::vector<double> iterZ = stats::leaveOneOutZ(iterSos);
      std::size_t k = 0;
      for (std::size_t p = 0; p < nProcs; ++p) {
        if (i < perProcess[p].size()) {
          basis.iterationZ[processBegin[p] + i] = iterZ[k++];
        }
      }
    }
  });

  // ---- trends --------------------------------------------------------------
  {
    std::vector<double> meanDur(nIters), meanSos(nIters);
    for (std::size_t i = 0; i < nIters; ++i) {
      meanDur[i] = basis.iterations[i].meanDuration;
      meanSos[i] = basis.iterations[i].meanSos;
    }
    basis.durationTrend = stats::olsTrend(meanDur);
    basis.sosTrend = stats::olsTrend(meanSos);
  }

  // ---- per-process stats ----------------------------------------------------
  basis.processes.resize(nProcs);
  std::vector<double> totals(nProcs, 0.0);
  util::parallelChunks(pool, nProcs, [&](std::size_t begin,
                                            std::size_t end) {
    for (std::size_t p = begin; p < end; ++p) {
      ProcessStats ps;
      ps.process = static_cast<trace::ProcessId>(p);
      ps.segments = perProcess[p].size();
      double* z = basis.globalZ.data() + processBegin[p];
      for (const auto& a : perProcess[p]) {
        const double v = static_cast<double>(a.sosTime) / res;
        ps.totalSos += v;
        ps.maxSos = std::max(ps.maxSos, v);
        *z++ = globalZ(v);
      }
      if (ps.segments > 0) {
        ps.meanSos = ps.totalSos / static_cast<double>(ps.segments);
      }
      totals[p] = ps.totalSos;
      basis.processes[p] = ps;
    }
  });
  // Leave-one-out scoring: a single extreme process must not dilute its
  // own score by inflating the scale estimate. The batched kernel scores
  // all processes from one shared sort.
  const std::vector<double> totalZ = stats::leaveOneOutZ(totals);
  for (std::size_t p = 0; p < nProcs; ++p) {
    basis.processes[p].totalZ = totalZ[p];
  }

  basis.processesBySos.resize(nProcs);
  std::iota(basis.processesBySos.begin(), basis.processesBySos.end(), 0u);
  std::sort(basis.processesBySos.begin(), basis.processesBySos.end(),
            [&](trace::ProcessId a, trace::ProcessId b) {
              if (totals[a] != totals[b]) {
                return totals[a] > totals[b];
              }
              return a < b;
            });
  return basis;
}

VariationReport classifyVariation(const SosResult& sos,
                                  const VariationBasis& basis,
                                  const VariationOptions& options) {
  const auto& perProcess = sos.all();
  PERFVAR_REQUIRE(perProcess.size() == basis.processes.size(),
                  "variation basis of a different SOS result");
  const double res = static_cast<double>(sos.trace().resolution());

  VariationReport report;
  static_cast<VariationStats&>(report) = basis;

  for (const trace::ProcessId p : report.processesBySos) {
    if (report.processes[p].totalZ >= options.processThreshold) {
      report.culpritProcesses.push_back(p);
    }
  }

  auto& hotspots = report.hotspots;
  std::size_t k = 0;  // the segment's slot in the basis' z-vectors
  for (std::size_t p = 0; p < perProcess.size(); ++p) {
    PERFVAR_REQUIRE(perProcess[p].size() == basis.processes[p].segments,
                    "variation basis of a different SOS result");
    for (std::size_t i = 0; i < perProcess[p].size(); ++i, ++k) {
      if (basis.globalZ[k] >= options.outlierThreshold) {
        const auto& a = perProcess[p][i];
        Hotspot h;
        h.process = static_cast<trace::ProcessId>(p);
        h.iteration = i;
        h.sosSeconds = static_cast<double>(a.sosTime) / res;
        h.durationSeconds = static_cast<double>(a.segment.inclusive()) / res;
        h.globalZ = basis.globalZ[k];
        h.iterationZ = basis.iterationZ[k];
        hotspots.push_back(h);
      }
    }
  }
  // (globalZ, process, iteration) is a total order, so the ranking does
  // not depend on the order the segments were visited in.
  const auto ranked = [](const Hotspot& a, const Hotspot& b) {
    if (a.globalZ != b.globalZ) {
      return a.globalZ > b.globalZ;
    }
    if (a.process != b.process) {
      return a.process < b.process;
    }
    return a.iteration < b.iteration;
  };
  if (hotspots.size() > options.maxHotspots) {
    const auto kept =
        hotspots.begin() + static_cast<std::ptrdiff_t>(options.maxHotspots);
    std::partial_sort(hotspots.begin(), kept, hotspots.end(), ranked);
    hotspots.erase(kept, hotspots.end());
  } else {
    std::sort(hotspots.begin(), hotspots.end(), ranked);
  }
  return report;
}

VariationReport analyzeVariation(const SosResult& sos,
                                 const VariationOptions& options,
                                 util::ThreadPool* pool) {
  return classifyVariation(sos, variationBasis(sos, pool), options);
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
