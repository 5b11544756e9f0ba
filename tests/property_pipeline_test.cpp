/// Randomized whole-stack property tests: generate random (but valid)
/// message-passing programs, simulate them, and check cross-cutting
/// invariants of the produced traces and of the full analysis pipeline.

#include <cmath>
#include <gtest/gtest.h>

#include "analysis/pipeline.hpp"
#include "profile/profile.hpp"
#include "sim/program.hpp"
#include "sim/simulator.hpp"
#include "trace/binary_io.hpp"
#include "trace/stats.hpp"
#include "util/rng.hpp"
#include "lint/lint.hpp"

#include <sstream>

namespace perfvar {
namespace {

struct GeneratedRun {
  trace::Trace tr;
  trace::FunctionId stepFunction;
  std::size_t iterations;
};

/// Random SPMD program: `ranks` ranks run `iters` iterations of
/// enter(step) { compute; [maybe p2p ring exchange]; collective } leave.
GeneratedRun generate(std::uint64_t seed) {
  Rng rng(seed);
  const auto ranks = static_cast<std::uint32_t>(rng.uniformInt(2, 12));
  const auto iters = static_cast<std::size_t>(rng.uniformInt(3, 25));
  const bool useRing = rng.uniform() < 0.5;
  const bool useAllreduce = rng.uniform() < 0.5;

  sim::ProgramBuilder b(ranks);
  const auto fStep = b.function("step", "APP");
  const auto fWork = b.function("work", "APP");
  for (std::size_t i = 0; i < iters; ++i) {
    // Per-iteration per-rank base times, same for all iterations of a
    // rank except random spikes.
    for (std::uint32_t r = 0; r < ranks; ++r) {
      b.enter(r, fStep);
      double work = 1e-4 * static_cast<double>(1 + (r * 7 + i * 3) % 9);
      sim::ComputeAttrs attrs;
      if (rng.uniform() < 0.05) {
        attrs.osDelay = rng.uniform(1e-4, 5e-3);  // random interruption
      }
      b.compute(r, fWork, work, attrs);
      if (useRing && ranks >= 2) {
        const std::uint32_t next = (r + 1) % ranks;
        const std::uint32_t prev = (r + ranks - 1) % ranks;
        b.send(r, next, static_cast<std::uint32_t>(i), 512);
        b.recv(r, prev, static_cast<std::uint32_t>(i));
      }
      if (useAllreduce) {
        b.allreduce(r, 64);
      } else {
        b.barrier(r);
      }
      b.leave(r, fStep);
    }
  }
  GeneratedRun run;
  sim::SimOptions opts;
  opts.noise.sigma = rng.uniform(0.0, 0.2);
  opts.noise.seed = seed * 977;
  run.tr = sim::simulate(b.finish(), opts);
  run.stepFunction = fStep;
  run.iterations = iters;
  return run;
}

class PipelineSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineSweep, TraceIsStructurallyValid) {
  const GeneratedRun run = generate(GetParam());
  EXPECT_TRUE(lint::validateStructure(run.tr).empty());
}

TEST_P(PipelineSweep, PipelineInvariantsHold) {
  const GeneratedRun run = generate(GetParam());
  const analysis::AnalysisResult result = analysis::analyzeTrace(run.tr);

  // The step wrapper dominates by construction.
  EXPECT_EQ(result.segmentFunction, run.stepFunction);

  // Exactly `iterations` segments per process.
  for (std::size_t p = 0; p < run.tr.processCount(); ++p) {
    EXPECT_EQ(result.sos->process(static_cast<trace::ProcessId>(p)).size(),
              run.iterations);
  }

  // Per-segment invariants.
  for (const auto& per : result.sos->all()) {
    for (const auto& seg : per) {
      EXPECT_LE(seg.syncTime, seg.segment.inclusive());
      EXPECT_EQ(seg.sosTime + seg.syncTime, seg.segment.inclusive());
      // MPI paradigm time within the segment >= subtracted sync time is an
      // equality here (default classifier == MPI paradigm).
      EXPECT_EQ(seg.paradigmTime[static_cast<std::size_t>(
                    trace::Paradigm::MPI)],
                seg.syncTime);
    }
  }

  // Report totals are consistent with the SOS matrix.
  const auto totals = result.sos->totalSosPerProcess();
  for (std::size_t p = 0; p < totals.size(); ++p) {
    EXPECT_NEAR(result.variation.processes[p].totalSos, totals[p], 1e-9);
  }

  // Hotspots reference existing segments and meet the threshold.
  for (const auto& h : result.variation.hotspots) {
    ASSERT_LT(h.process, run.tr.processCount());
    ASSERT_LT(h.iteration,
              result.sos->process(h.process).size());
    EXPECT_GE(h.globalZ, 3.5);
    EXPECT_NEAR(h.sosSeconds, result.sos->sosSeconds(h.process, h.iteration),
                1e-12);
  }

  // Iteration stats: min <= mean <= max, imbalance >= 0.
  for (const auto& it : result.variation.iterations) {
    EXPECT_LE(it.minSos, it.meanSos + 1e-12);
    EXPECT_LE(it.meanSos, it.maxSos + 1e-12);
    EXPECT_GE(it.imbalance, 0.0);
    EXPECT_LT(it.slowestProcess, run.tr.processCount());
  }
}

TEST_P(PipelineSweep, SosNeverExceedsComputeSideOfTheProgram) {
  // Global conservation: summed SOS == summed duration - summed sync.
  const GeneratedRun run = generate(GetParam());
  const auto sos = analysis::analyzeSos(run.tr, run.stepFunction);
  long double sumSos = 0;
  long double sumDur = 0;
  long double sumSync = 0;
  for (const auto& per : sos.all()) {
    for (const auto& seg : per) {
      sumSos += static_cast<long double>(seg.sosTime);
      sumDur += static_cast<long double>(seg.segment.inclusive());
      sumSync += static_cast<long double>(seg.syncTime);
    }
  }
  EXPECT_EQ(sumSos + sumSync, sumDur);
}

/// Checks the SOS bound/count invariants on one pipeline result:
///  * every segment's SOS-time is >= 0 and <= its inclusive duration,
///  * the per-rank segment counts sum to the totals the SosResult and the
///    variation report advertise.
void expectSosInvariants(const analysis::AnalysisResult& result) {
  std::size_t perRankSum = 0;
  for (const auto& per : result.sos->all()) {
    perRankSum += per.size();
    for (const auto& seg : per) {
      EXPECT_GE(seg.sosTime, 0u);
      EXPECT_LE(seg.sosTime, seg.segment.inclusive());
    }
  }
  EXPECT_EQ(perRankSum, result.sos->allSosSeconds().size());
  EXPECT_EQ(perRankSum, result.variation.sosSummary.count);
  std::size_t reportedSum = 0;
  for (const auto& ps : result.variation.processes) {
    reportedSum += ps.segments;
  }
  EXPECT_EQ(perRankSum, reportedSum);
}

TEST_P(PipelineSweep, SosBoundsAndSegmentCountsHold) {
  const GeneratedRun run = generate(GetParam());
  expectSosInvariants(analysis::analyzeTrace(run.tr));
}

TEST_P(PipelineSweep, SosInvariantsHoldUnderTheParallelPipeline) {
  const GeneratedRun run = generate(GetParam());
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    analysis::PipelineOptions opts;
    opts.threads = threads;
    const auto result = analysis::analyzeTrace(run.tr, opts);
    expectSosInvariants(result);
    // And the parallel engine's SOS values equal the serial ones.
    const auto serial = analysis::analyzeSos(run.tr, run.stepFunction);
    EXPECT_EQ(serial.allSosSeconds(), result.sos->allSosSeconds());
  }
}

TEST_P(PipelineSweep, SerializationPreservesTheAnalysis) {
  const GeneratedRun run = generate(GetParam());
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  trace::writeBinary(run.tr, buf);
  const trace::Trace loaded = trace::readBinary(buf);
  const auto a = analysis::analyzeSos(run.tr, run.stepFunction);
  const auto b = analysis::analyzeSos(loaded, run.stepFunction);
  EXPECT_EQ(a.allSosSeconds(), b.allSosSeconds());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSweep,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808, 909, 1010, 1111, 1212));

}  // namespace
}  // namespace perfvar
