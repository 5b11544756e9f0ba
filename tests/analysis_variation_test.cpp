#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

#include "analysis/pipeline.hpp"
#include "analysis/variation.hpp"
#include "apps/paper_examples.hpp"
#include "trace/builder.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace perfvar::analysis {
namespace {

/// Synthetic iterative trace: `procs` processes x `iters` iterations of a
/// `step` function with per-(process, iteration) SOS-time supplied by a
/// callback, plus a barrier absorbing the imbalance.
template <typename WorkFn>
trace::Trace iterativeTrace(std::size_t procs, std::size_t iters,
                            WorkFn&& work) {
  trace::TraceBuilder b(procs);
  const auto fStep = b.defineFunction("step");
  const auto fWork = b.defineFunction("work");
  const auto fMpi =
      b.defineFunction("MPI_Barrier", "MPI", trace::Paradigm::MPI);
  for (std::size_t i = 0; i < iters; ++i) {
    trace::Timestamp slowest = 0;
    for (std::size_t p = 0; p < procs; ++p) {
      slowest = std::max(slowest, work(p, i));
    }
    for (std::size_t p = 0; p < procs; ++p) {
      const trace::Timestamp t0 = static_cast<trace::Timestamp>(i) * 1000;
      const trace::Timestamp w = work(p, i);
      b.enter(p, t0, fStep);
      b.enter(p, t0, fWork);
      b.leave(p, t0 + w, fWork);
      b.enter(p, t0 + w, fMpi);
      b.leave(p, t0 + slowest + 1, fMpi);
      b.leave(p, t0 + slowest + 1, fStep);
    }
  }
  return b.finish();
}

TEST(Variation, DetectsPersistentlySlowProcess) {
  const trace::Trace tr = iterativeTrace(8, 30, [](std::size_t p, std::size_t) {
    return static_cast<trace::Timestamp>(p == 5 ? 160 : 100);
  });
  const auto fStep = *tr.functions.find("step");
  const SosResult sos = analyzeSos(tr, fStep);
  const VariationReport report = analyzeVariation(sos);
  EXPECT_EQ(report.slowestProcess(), 5u);
  ASSERT_FALSE(report.culpritProcesses.empty());
  EXPECT_EQ(report.culpritProcesses[0], 5u);
  EXPECT_GT(report.processes[5].totalZ, 3.0);
  // Every iteration blames process 5.
  for (const auto& it : report.iterations) {
    EXPECT_EQ(it.slowestProcess, 5u);
    EXPECT_NEAR(it.imbalance, 160.0 / 107.5 - 1.0, 1e-9);
  }
}

TEST(Variation, DetectsSingleSlowIteration) {
  const trace::Trace tr =
      iterativeTrace(6, 40, [](std::size_t p, std::size_t i) {
        // Baseline with mild deterministic jitter (real traces are never
        // exactly constant) plus one extreme segment.
        const auto jitter = static_cast<trace::Timestamp>((p * 13 + i * 7) % 9);
        return (p == 2 && i == 17) ? trace::Timestamp{500} : 100 + jitter;
      });
  const auto fStep = *tr.functions.find("step");
  const SosResult sos = analyzeSos(tr, fStep);
  const VariationReport report = analyzeVariation(sos);
  ASSERT_FALSE(report.hotspots.empty());
  EXPECT_EQ(report.hotspots[0].process, 2u);
  EXPECT_EQ(report.hotspots[0].iteration, 17u);
  EXPECT_GT(report.hotspots[0].globalZ, 3.5);
  EXPECT_GT(report.hotspots[0].iterationZ, 3.5);
}

TEST(Variation, DetectsGradualSlowdownTrend) {
  const trace::Trace tr =
      iterativeTrace(4, 50, [](std::size_t, std::size_t i) {
        return static_cast<trace::Timestamp>(100 + 4 * i);
      });
  const auto fStep = *tr.functions.find("step");
  const SosResult sos = analyzeSos(tr, fStep);
  const VariationReport report = analyzeVariation(sos);
  // ~4 ticks/iteration; slopes are reported in seconds (resolution 1e9).
  EXPECT_NEAR(report.sosTrend.slope, 4e-9, 1e-10);
  EXPECT_GT(report.sosTrend.r2, 0.99);
  EXPECT_NEAR(report.durationTrend.slope, 4e-9, 1e-10);
}

TEST(Variation, BalancedRunHasNoCulpritsOrHotspots) {
  const trace::Trace tr =
      iterativeTrace(8, 30, [](std::size_t p, std::size_t i) {
        // Tiny deterministic jitter, no structure.
        return static_cast<trace::Timestamp>(100 + (p * 7 + i * 3) % 5);
      });
  const auto fStep = *tr.functions.find("step");
  const SosResult sos = analyzeSos(tr, fStep);
  const VariationReport report = analyzeVariation(sos);
  EXPECT_TRUE(report.culpritProcesses.empty());
  EXPECT_TRUE(report.hotspots.empty());
}

TEST(Variation, HotspotsAreRankedAndCapped) {
  const trace::Trace tr =
      iterativeTrace(4, 50, [](std::size_t p, std::size_t i) {
        if (i % 5 == 0) {
          return static_cast<trace::Timestamp>(300 + 10 * p);
        }
        return static_cast<trace::Timestamp>(100 + (p * 11 + i * 5) % 7);
      });
  const auto fStep = *tr.functions.find("step");
  const SosResult sos = analyzeSos(tr, fStep);
  VariationOptions opts;
  opts.maxHotspots = 7;
  const VariationReport report = analyzeVariation(sos, opts);
  EXPECT_EQ(report.hotspots.size(), 7u);
  for (std::size_t i = 1; i < report.hotspots.size(); ++i) {
    EXPECT_GE(report.hotspots[i - 1].globalZ, report.hotspots[i].globalZ);
  }
}

TEST(Variation, ProcessesBySosIsSortedDescending) {
  const trace::Trace tr =
      iterativeTrace(5, 10, [](std::size_t p, std::size_t) {
        return static_cast<trace::Timestamp>(100 + 10 * p);
      });
  const auto fStep = *tr.functions.find("step");
  const SosResult sos = analyzeSos(tr, fStep);
  const VariationReport report = analyzeVariation(sos);
  ASSERT_EQ(report.processesBySos.size(), 5u);
  EXPECT_EQ(report.processesBySos.front(), 4u);
  EXPECT_EQ(report.processesBySos.back(), 0u);
  const auto totals = sos.totalSosPerProcess();
  for (std::size_t i = 1; i < report.processesBySos.size(); ++i) {
    EXPECT_GE(totals[report.processesBySos[i - 1]],
              totals[report.processesBySos[i]]);
  }
}

TEST(Variation, ReportFormatsKeyFacts) {
  const trace::Trace tr =
      iterativeTrace(4, 20, [](std::size_t p, std::size_t i) {
        return static_cast<trace::Timestamp>(
            (p == 1 && i == 5) ? 900 : 100);
      });
  const auto fStep = *tr.functions.find("step");
  const SosResult sos = analyzeSos(tr, fStep);
  const VariationReport report = analyzeVariation(sos);
  const std::string text = formatVariationReport(sos, report);
  EXPECT_NE(text.find("segmentation function: step"), std::string::npos);
  EXPECT_NE(text.find("Rank 1"), std::string::npos);
  EXPECT_NE(text.find("top hotspots"), std::string::npos);
}

// --- basis + classification against the single-pass oracle ------------------

/// The variation analysis as one pass that selects while it scores (the
/// form it had before the basis/classification split, serial), kept as
/// the oracle classifyVariation(sos, variationBasis(sos)) must equal field by
/// field.
VariationReport oracleVariation(const SosResult& sos,
                                const VariationOptions& options) {
  VariationReport report;
  const auto& perProcess = sos.all();
  const std::size_t nProcs = perProcess.size();
  const std::size_t nIters = sos.maxSegmentsPerProcess();
  const double res = static_cast<double>(sos.trace().resolution());

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

  report.iterations.resize(nIters);
  for (std::size_t i = 0; i < nIters; ++i) {
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
  {
    std::vector<double> meanDur(nIters), meanSos(nIters);
    for (std::size_t i = 0; i < nIters; ++i) {
      meanDur[i] = report.iterations[i].meanDuration;
      meanSos[i] = report.iterations[i].meanSos;
    }
    report.durationTrend = stats::olsTrend(meanDur);
    report.sosTrend = stats::olsTrend(meanSos);
  }

  report.processes.resize(nProcs);
  std::vector<double> totals(nProcs, 0.0);
  for (std::size_t p = 0; p < nProcs; ++p) {
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

  std::vector<Hotspot> hotspots;
  for (std::size_t i = 0; i < nIters; ++i) {
    std::vector<double> iterSos;
    for (std::size_t p = 0; p < nProcs; ++p) {
      if (i < perProcess[p].size()) {
        iterSos.push_back(static_cast<double>(perProcess[p][i].sosTime) /
                          res);
      }
    }
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
        hotspots.push_back(h);
      }
    }
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

void expectSameReport(const VariationReport& a, const VariationReport& b) {
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    const IterationStats& x = a.iterations[i];
    const IterationStats& y = b.iterations[i];
    EXPECT_EQ(x.iteration, y.iteration);
    EXPECT_EQ(x.processCount, y.processCount);
    EXPECT_EQ(x.minSos, y.minSos);
    EXPECT_EQ(x.maxSos, y.maxSos);
    EXPECT_EQ(x.meanSos, y.meanSos);
    EXPECT_EQ(x.stddevSos, y.stddevSos);
    EXPECT_EQ(x.meanDuration, y.meanDuration);
    EXPECT_EQ(x.imbalance, y.imbalance);
    EXPECT_EQ(x.slowestProcess, y.slowestProcess);
  }
  ASSERT_EQ(a.processes.size(), b.processes.size());
  for (std::size_t p = 0; p < a.processes.size(); ++p) {
    const ProcessStats& x = a.processes[p];
    const ProcessStats& y = b.processes[p];
    EXPECT_EQ(x.process, y.process);
    EXPECT_EQ(x.segments, y.segments);
    EXPECT_EQ(x.totalSos, y.totalSos);
    EXPECT_EQ(x.meanSos, y.meanSos);
    EXPECT_EQ(x.maxSos, y.maxSos);
    EXPECT_EQ(x.totalZ, y.totalZ);
  }
  EXPECT_EQ(a.processesBySos, b.processesBySos);
  EXPECT_EQ(a.culpritProcesses, b.culpritProcesses);
  ASSERT_EQ(a.hotspots.size(), b.hotspots.size());
  for (std::size_t i = 0; i < a.hotspots.size(); ++i) {
    const Hotspot& x = a.hotspots[i];
    const Hotspot& y = b.hotspots[i];
    EXPECT_EQ(x.process, y.process) << "hotspot " << i;
    EXPECT_EQ(x.iteration, y.iteration) << "hotspot " << i;
    EXPECT_EQ(x.sosSeconds, y.sosSeconds);
    EXPECT_EQ(x.durationSeconds, y.durationSeconds);
    EXPECT_EQ(x.globalZ, y.globalZ);
    EXPECT_EQ(x.iterationZ, y.iterationZ);
  }
  const auto sameFit = [](const stats::OlsFit& x, const stats::OlsFit& y) {
    return x.slope == y.slope && x.intercept == y.intercept && x.r2 == y.r2;
  };
  EXPECT_TRUE(sameFit(a.durationTrend, b.durationTrend));
  EXPECT_TRUE(sameFit(a.sosTrend, b.sosTrend));
  EXPECT_EQ(a.sosMedian, b.sosMedian);
  EXPECT_EQ(a.sosMad, b.sosMad);
  EXPECT_EQ(a.sosSummary.count, b.sosSummary.count);
  EXPECT_EQ(a.sosSummary.min, b.sosSummary.min);
  EXPECT_EQ(a.sosSummary.max, b.sosSummary.max);
  EXPECT_EQ(a.sosSummary.mean, b.sosSummary.mean);
  EXPECT_EQ(a.sosSummary.stddev, b.sosSummary.stddev);
}

/// A seeded random SOS matrix over `tr`'s processes: ragged rows (some
/// processes have no segment at all, one always has `iters`), and SOS
/// ticks drawn per `shape`: 0 wide spread, 1 a few distinct values (ties
/// in the global z), 2 one value with one outlier (MAD = 0, the stddev
/// fallback), 3 one value everywhere (zero scale).
SosResult randomSos(const trace::Trace& tr, std::size_t iters, int shape,
                    Rng& rng) {
  const std::size_t procs = tr.processCount();
  const auto outlier = static_cast<std::size_t>(
      rng.uniformInt(0, static_cast<std::int64_t>(procs * iters) - 1));
  std::vector<std::vector<SegmentAnalysis>> per(procs);
  for (std::size_t p = 0; p < procs; ++p) {
    const std::size_t count =
        p == 0 ? iters
               : static_cast<std::size_t>(
                     rng.uniformInt(0, static_cast<std::int64_t>(iters)));
    for (std::size_t i = 0; i < count; ++i) {
      trace::Timestamp sos = 100;
      switch (shape) {
        case 0:
          sos = static_cast<trace::Timestamp>(rng.uniformInt(1, 100000));
          break;
        case 1:
          sos = static_cast<trace::Timestamp>(100 * rng.uniformInt(1, 3));
          break;
        case 2:
          sos = p * iters + i == outlier ? 5000 : 100;
          break;
        default:
          break;
      }
      SegmentAnalysis a;
      a.segment.process = static_cast<trace::ProcessId>(p);
      a.segment.index = static_cast<std::uint32_t>(i);
      a.segment.enter = static_cast<trace::Timestamp>(i) * 1'000'000;
      a.sosTime = sos;
      a.syncTime = static_cast<trace::Timestamp>(rng.uniformInt(0, 50));
      a.segment.leave = a.segment.enter + a.sosTime + a.syncTime;
      per[p].push_back(a);
    }
  }
  return SosResult(tr, trace::kInvalidFunction, std::move(per));
}

TEST(VariationBasis, ClassificationEqualsTheSinglePassOracle) {
  Rng rng(20161);
  util::ThreadPool pool(4);
  const double inf = std::numeric_limits<double>::infinity();
  const double thresholds[] = {-inf, -2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.5, inf};
  const std::size_t caps[] = {0, 1, 3, 100};
  for (int round = 0; round < 48; ++round) {
    const int shape = round % 4;
    const auto procs = static_cast<std::size_t>(rng.uniformInt(1, 12));
    const auto iters = static_cast<std::size_t>(rng.uniformInt(1, 20));
    const trace::Trace tr = trace::TraceBuilder(procs).finish();
    const SosResult sos = randomSos(tr, iters, shape, rng);
    const VariationBasis serial = variationBasis(sos);
    const VariationBasis pooled = variationBasis(sos, &pool);
    for (int k = 0; k < 6; ++k) {
      VariationOptions options;
      options.outlierThreshold = thresholds[rng.uniformInt(0, 8)];
      options.processThreshold = thresholds[rng.uniformInt(0, 8)];
      options.maxHotspots = caps[rng.uniformInt(0, 3)];
      SCOPED_TRACE("round " + std::to_string(round) + " shape " +
                   std::to_string(shape) + " outlier " +
                   std::to_string(options.outlierThreshold) + " process " +
                   std::to_string(options.processThreshold) + " cap " +
                   std::to_string(options.maxHotspots));
      const VariationReport oracle = oracleVariation(sos, options);
      expectSameReport(oracle, classifyVariation(sos, serial, options));
      expectSameReport(oracle, classifyVariation(sos, pooled, options));
      expectSameReport(oracle, analyzeVariation(sos, options, &pool));
    }
  }
}

// --- pipeline ----------------------------------------------------------------

TEST(Pipeline, EndToEndOnFigure3) {
  const trace::Trace tr = apps::buildFigure3Trace();
  const AnalysisResult result = analyzeTrace(tr);
  EXPECT_EQ(tr.functions.name(result.segmentFunction), "a");
  EXPECT_EQ(result.sos->maxSegmentsPerProcess(), 3u);
  const std::string text = formatAnalysis(tr, result);
  EXPECT_NE(text.find("dominant"), std::string::npos);
}

TEST(Pipeline, CandidateIndexSelectsFinerSegmentation) {
  const trace::Trace tr = apps::buildFigure3Trace();
  PipelineOptions opts;
  opts.candidateIndex = 1;
  const AnalysisResult result = analyzeTrace(tr, opts);
  EXPECT_EQ(tr.functions.name(result.segmentFunction), "calc");
}

TEST(Pipeline, OutOfRangeCandidateThrows) {
  const trace::Trace tr = apps::buildFigure3Trace();
  PipelineOptions opts;
  opts.candidateIndex = 99;
  EXPECT_THROW(analyzeTrace(tr, opts), Error);
}

TEST(Pipeline, ThrowsWhenNothingQualifies) {
  trace::TraceBuilder b(2);
  const auto f = b.defineFunction("main");
  b.enter(0, 0, f);
  b.leave(0, 10, f);
  b.enter(1, 0, f);
  b.leave(1, 10, f);
  const trace::Trace tr = b.finish();
  EXPECT_THROW(analyzeTrace(tr), Error);
}

}  // namespace
}  // namespace perfvar::analysis
