#include <gtest/gtest.h>

#include "analysis/sos.hpp"
#include "sim/network.hpp"
#include "sim/program.hpp"
#include "sim/simulator.hpp"
#include "trace/replay.hpp"
#include "util/error.hpp"
#include "lint/lint.hpp"

namespace perfvar::sim {
namespace {

SimOptions quietOptions() {
  SimOptions opts;
  opts.noise.sigma = 0.0;
  return opts;
}

// --- network model ------------------------------------------------------------

TEST(Network, TreeStages) {
  EXPECT_EQ(treeStages(1), 1u);
  EXPECT_EQ(treeStages(2), 1u);
  EXPECT_EQ(treeStages(3), 2u);
  EXPECT_EQ(treeStages(64), 6u);
  EXPECT_EQ(treeStages(100), 7u);
}

TEST(Network, CostsScaleWithBytesAndRanks) {
  const NetworkModel net;
  EXPECT_GT(net.messageDelay(1 << 20), net.messageDelay(64));
  EXPECT_GT(net.allreduceCost(64, 1024), net.barrierCost(64));
  EXPECT_GT(net.barrierCost(128), net.barrierCost(4));
  EXPECT_DOUBLE_EQ(net.transferTime(0), 0.0);
}

// --- program builder ------------------------------------------------------------

TEST(Program, BuilderValidatesStructure) {
  ProgramBuilder b(2);
  const auto f = b.function("f");
  b.enter(0, f);
  EXPECT_THROW(b.finish(), Error);  // unclosed region
}

TEST(Program, BuilderValidatesArguments) {
  ProgramBuilder b(2);
  const auto f = b.function("f");
  EXPECT_THROW(b.compute(0, f, -1.0), Error);
  EXPECT_THROW(b.compute(5, f, 1.0), Error);
  EXPECT_THROW(b.send(0, 0, 0, 8), Error);   // self-send
  EXPECT_THROW(b.recv(1, 1, 0), Error);      // self-recv
  EXPECT_THROW(b.bcast(0, 7, 8), Error);     // bad root
  EXPECT_THROW(b.leave(0, f), Error);        // leave without enter
}

TEST(Program, AutoDefinesMpiFunctions) {
  ProgramBuilder b(2);
  b.barrier(0);
  b.barrier(1);
  const Program p = b.finish();
  ASSERT_NE(p.fnBarrier, trace::kInvalidFunction);
  EXPECT_EQ(p.functions.at(p.fnBarrier).name, "MPI_Barrier");
  EXPECT_EQ(p.functions.at(p.fnBarrier).paradigm, trace::Paradigm::MPI);
  ASSERT_EQ(p.ops.size(), 2u);
  EXPECT_EQ(p.ops[0].size(), 1u);
  EXPECT_EQ(p.ops[1].size(), 1u);
}

// --- compute & counters -----------------------------------------------------------

TEST(Simulate, ComputeProducesMatchingEnterLeave) {
  ProgramBuilder b(1);
  const auto f = b.function("work");
  b.compute(0, f, 0.5);
  b.compute(0, f, 0.25);
  SimReport report;
  const trace::Trace tr = simulate(b.finish(), quietOptions(), &report);
  lint::requireStructurallyValid(tr);
  EXPECT_NEAR(report.makespan, 0.75, 1e-9);
  const auto frames = trace::collectFrames(tr.processes[0]);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].inclusive(), 500'000'000u);
  EXPECT_EQ(frames[1].inclusive(), 250'000'000u);
}

TEST(Simulate, CyclesCounterTracksBusyTimeNotOsDelay) {
  ProgramBuilder b(1);
  const auto f = b.function("work");
  ComputeAttrs interrupted;
  interrupted.osDelay = 0.4;
  b.compute(0, f, 0.1, interrupted);
  SimOptions opts = quietOptions();
  opts.counters.clockGhz = 2.0;
  const trace::Trace tr = simulate(b.finish(), opts);
  const auto cycles = *tr.metrics.find("PAPI_TOT_CYC");
  // Wall time 0.5 s, but only 0.1 s of cycles at 2 GHz.
  const auto frames = trace::collectFrames(tr.processes[0]);
  EXPECT_EQ(frames[0].inclusive(), 500'000'000u);
  double lastValue = 0.0;
  for (const auto& e : tr.processes[0].events) {
    if (e.kind == trace::EventKind::Metric && e.ref == cycles) {
      lastValue = e.value;
    }
  }
  EXPECT_NEAR(lastValue, 0.1 * 2.0e9, 1.0);
}

TEST(Simulate, FpExceptionCounterAccumulates) {
  ProgramBuilder b(1);
  const auto f = b.function("work");
  ComputeAttrs attrs;
  attrs.fpExceptions = 123.0;
  b.compute(0, f, 0.01, attrs);
  b.compute(0, f, 0.01, attrs);
  const trace::Trace tr = simulate(b.finish(), quietOptions());
  const auto fpe = *tr.metrics.find("FR_FPU_EXCEPTIONS_SSE_MICROTRAPS");
  double lastValue = 0.0;
  for (const auto& e : tr.processes[0].events) {
    if (e.kind == trace::EventKind::Metric && e.ref == fpe) {
      lastValue = e.value;
    }
  }
  EXPECT_DOUBLE_EQ(lastValue, 246.0);
}

TEST(Simulate, NoiseIsDeterministicPerSeed) {
  const auto build = [] {
    ProgramBuilder b(2);
    const auto f = b.function("work");
    for (int i = 0; i < 5; ++i) {
      b.compute(0, f, 0.01);
      b.compute(1, f, 0.01);
    }
    return b.finish();
  };
  SimOptions opts;
  opts.noise.sigma = 0.2;
  opts.noise.seed = 99;
  const trace::Trace a = simulate(build(), opts);
  const trace::Trace b2 = simulate(build(), opts);
  ASSERT_EQ(a.processes[0].events.size(), b2.processes[0].events.size());
  for (std::size_t i = 0; i < a.processes[0].events.size(); ++i) {
    EXPECT_EQ(a.processes[0].events[i], b2.processes[0].events[i]);
  }
  opts.noise.seed = 100;
  const trace::Trace c = simulate(build(), opts);
  EXPECT_NE(a.processes[0].events.back().time,
            c.processes[0].events.back().time);
}

// --- collectives --------------------------------------------------------------------

TEST(Simulate, BarrierReleasesAllAtLastArrival) {
  ProgramBuilder b(3);
  const auto f = b.function("work");
  b.compute(0, f, 0.10);
  b.compute(1, f, 0.30);
  b.compute(2, f, 0.20);
  for (std::uint32_t r = 0; r < 3; ++r) {
    b.barrier(r);
  }
  const trace::Trace tr = simulate(b.finish(), quietOptions());
  const auto fBarrier = *tr.functions.find("MPI_Barrier");
  std::vector<trace::Timestamp> leaves;
  std::vector<trace::Timestamp> waits;
  for (const auto& proc : tr.processes) {
    for (const auto& frame : trace::collectFrames(proc)) {
      if (frame.function == fBarrier) {
        leaves.push_back(frame.leaveTime);
        waits.push_back(frame.inclusive());
      }
    }
  }
  ASSERT_EQ(leaves.size(), 3u);
  EXPECT_EQ(leaves[0], leaves[1]);
  EXPECT_EQ(leaves[1], leaves[2]);
  // Fastest rank waits the longest; slowest the shortest.
  EXPECT_GT(waits[0], waits[2]);
  EXPECT_GT(waits[2], waits[1]);
  // Completion is after the last arrival (0.30 s).
  EXPECT_GE(leaves[0], 300'000'000u);
}

TEST(Simulate, BcastWaitsForRootOnly) {
  ProgramBuilder b(3);
  const auto f = b.function("work");
  b.compute(0, f, 0.5);  // root arrives last
  b.compute(1, f, 0.1);
  b.compute(2, f, 0.2);
  for (std::uint32_t r = 0; r < 3; ++r) {
    b.bcast(r, 0, 1024);
  }
  const trace::Trace tr = simulate(b.finish(), quietOptions());
  const auto fBcast = *tr.functions.find("MPI_Bcast");
  for (trace::ProcessId p = 1; p < 3; ++p) {
    for (const auto& frame : trace::collectFrames(tr.processes[p])) {
      if (frame.function == fBcast) {
        EXPECT_GE(frame.leaveTime, 500'000'000u);  // waited for the root
      }
    }
  }
}

TEST(Simulate, MismatchedCollectivesThrow) {
  ProgramBuilder b(2);
  b.barrier(0);
  b.allreduce(1, 64);
  EXPECT_THROW(simulate(b.finish(), quietOptions()), Error);
}

TEST(Simulate, MissingCollectiveParticipantDeadlocks) {
  ProgramBuilder b(2);
  b.barrier(0);  // rank 1 never joins
  EXPECT_THROW(simulate(b.finish(), quietOptions()), Error);
}

// --- point-to-point -----------------------------------------------------------------

TEST(Simulate, RecvBlocksUntilMessageArrives) {
  ProgramBuilder b(2);
  const auto f = b.function("work");
  b.compute(0, f, 0.2);     // sender is slow
  b.send(0, 1, 7, 1024);
  b.recv(1, 0, 7);          // receiver posts immediately
  const trace::Trace tr = simulate(b.finish(), quietOptions());
  const auto fRecv = *tr.functions.find("MPI_Recv");
  const auto frames = trace::collectFrames(tr.processes[1]);
  ASSERT_FALSE(frames.empty());
  const auto& recvFrame = frames.front();
  EXPECT_EQ(recvFrame.function, fRecv);
  EXPECT_EQ(recvFrame.enterTime, 0u);
  EXPECT_GE(recvFrame.leaveTime, 200'000'000u);  // waited for the sender
}

TEST(Simulate, MessagesMatchFifoPerTag) {
  ProgramBuilder b(2);
  const auto f = b.function("work");
  b.send(0, 1, 1, 100);
  b.send(0, 1, 1, 200);
  b.send(0, 1, 2, 300);
  b.compute(1, f, 0.01);
  b.recv(1, 0, 2);  // tag 2 first: gets the 300-byte message
  b.recv(1, 0, 1);  // then FIFO on tag 1: 100 before 200
  b.recv(1, 0, 1);
  const trace::Trace tr = simulate(b.finish(), quietOptions());
  std::vector<std::uint64_t> recvSizes;
  for (const auto& e : tr.processes[1].events) {
    if (e.kind == trace::EventKind::MpiRecv) {
      recvSizes.push_back(e.size);
    }
  }
  ASSERT_EQ(recvSizes.size(), 3u);
  EXPECT_EQ(recvSizes[0], 300u);
  EXPECT_EQ(recvSizes[1], 100u);
  EXPECT_EQ(recvSizes[2], 200u);
}

TEST(Simulate, SendRecvEventsCarryPeerAndBytes) {
  ProgramBuilder b(2);
  b.send(0, 1, 9, 4096);
  b.recv(1, 0, 9);
  SimReport report;
  const trace::Trace tr = simulate(b.finish(), quietOptions(), &report);
  EXPECT_EQ(report.messages, 1u);
  bool sawSend = false;
  for (const auto& e : tr.processes[0].events) {
    if (e.kind == trace::EventKind::MpiSend) {
      sawSend = true;
      EXPECT_EQ(e.ref, 1u);
      EXPECT_EQ(e.aux, 9u);
      EXPECT_EQ(e.size, 4096u);
    }
  }
  EXPECT_TRUE(sawSend);
}

TEST(Simulate, RecvWithoutSendDeadlocks) {
  ProgramBuilder b(2);
  const auto f = b.function("work");
  b.compute(0, f, 0.01);
  b.recv(1, 0, 5);
  try {
    simulate(b.finish(), quietOptions());
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos);
  }
}

TEST(Simulate, CrossedSendsDoNotDeadlock) {
  // Eager sends: both ranks send first, then receive - legal here.
  ProgramBuilder b(2);
  b.send(0, 1, 0, 1024);
  b.send(1, 0, 0, 1024);
  b.recv(0, 1, 0);
  b.recv(1, 0, 0);
  SimReport report;
  const trace::Trace tr = simulate(b.finish(), quietOptions(), &report);
  lint::requireStructurallyValid(tr);
  EXPECT_EQ(report.messages, 2u);
}

// --- integration with the analysis layer ---------------------------------------------

TEST(Simulate, WaitTimesAppearAsSyncTimeInSosAnalysis) {
  ProgramBuilder b(2);
  const auto fStep = b.function("step");
  const auto fWork = b.function("work");
  for (int i = 0; i < 4; ++i) {
    for (std::uint32_t r = 0; r < 2; ++r) {
      b.enter(r, fStep);
      b.compute(r, fWork, r == 0 ? 0.10 : 0.02);
      b.barrier(r);
      b.leave(r, fStep);
    }
  }
  const trace::Trace tr = simulate(b.finish(), quietOptions());
  const analysis::SosResult sos = analysis::analyzeSos(tr, fStep);
  for (std::size_t i = 0; i < 4; ++i) {
    // Durations nearly equal; SOS exposes the 5x difference.
    EXPECT_NEAR(sos.durationSeconds(0, i), sos.durationSeconds(1, i), 1e-3);
    EXPECT_NEAR(sos.sosSeconds(0, i), 0.10, 1e-3);
    EXPECT_NEAR(sos.sosSeconds(1, i), 0.02, 1e-3);
  }
}

}  // namespace
}  // namespace perfvar::sim
