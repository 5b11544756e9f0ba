/// Tests of the nonblocking point-to-point operations (Isend/Irecv/Wait)
/// and their interaction with the SOS synchronization policies.

#include <gtest/gtest.h>

#include "analysis/sos.hpp"
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

TEST(Nonblocking, BuilderEnforcesWaitForEveryRequest) {
  ProgramBuilder b(2);
  b.isend(0, 1, 0, 64);
  b.irecv(1, 0, 0);
  EXPECT_THROW(b.finish(), Error);  // two unwaited requests
}

TEST(Nonblocking, WaitOnUnknownRequestRejected) {
  ProgramBuilder b(2);
  const auto req = b.isend(0, 1, 0, 64);
  b.wait(0, req);
  EXPECT_THROW(b.wait(0, req), Error);   // double wait
  EXPECT_THROW(b.wait(0, 99), Error);    // never posted
}

TEST(Nonblocking, IsendCompletesImmediatelyAtWait) {
  ProgramBuilder b(2);
  const auto req = b.isend(0, 1, 7, 1024);
  b.wait(0, req);
  b.recv(1, 0, 7);
  SimReport report;
  const trace::Trace tr = simulate(b.finish(), quietOptions(), &report);
  lint::requireStructurallyValid(tr);
  EXPECT_EQ(report.messages, 1u);
  // The sender's MPI_Wait frame has zero width (eager completion).
  const auto fWait = *tr.functions.find("MPI_Wait");
  for (const auto& frame : trace::collectFrames(tr.processes[0])) {
    if (frame.function == fWait) {
      EXPECT_EQ(frame.inclusive(), 0u);
    }
  }
}

TEST(Nonblocking, IrecvWaitBlocksUntilMessageArrives) {
  ProgramBuilder b(2);
  const auto f = b.function("work");
  const auto req = b.irecv(1, 0, 3);  // posted at t ~ 0
  b.compute(0, f, 0.25);              // sender busy first
  b.send(0, 1, 3, 2048);
  b.wait(1, req);
  const trace::Trace tr = simulate(b.finish(), quietOptions());
  const auto fWait = *tr.functions.find("MPI_Wait");
  bool sawWait = false;
  for (const auto& frame : trace::collectFrames(tr.processes[1])) {
    if (frame.function == fWait) {
      sawWait = true;
      EXPECT_GE(frame.leaveTime, 250'000'000u);  // waited for the sender
    }
  }
  EXPECT_TRUE(sawWait);
}

TEST(Nonblocking, OverlapHidesCommunicationTime) {
  // Rank 1 posts the receive, computes 0.3 s while the (slow, large)
  // message is in flight, then waits. With overlap the wait is short; a
  // blocking receive before the compute would waste the full transfer.
  SimOptions opts = quietOptions();
  opts.network.bandwidth = 1.0e8;  // 100 MB/s -> 0.1 s for 10 MB
  constexpr std::uint64_t kBytes = 10'000'000;

  const auto makeProgram = [&](bool overlap) {
    ProgramBuilder b(2);
    const auto f = b.function("work");
    b.send(0, 1, 1, kBytes);
    if (overlap) {
      const auto req = b.irecv(1, 0, 1);
      b.compute(1, f, 0.3);
      b.wait(1, req);
    } else {
      b.recv(1, 0, 1);
      b.compute(1, f, 0.3);
    }
    return b.finish();
  };

  SimReport withOverlap;
  simulate(makeProgram(true), opts, &withOverlap);
  SimReport without;
  simulate(makeProgram(false), opts, &without);
  // Overlapped: ~0.3 s. Blocking-first: ~0.1 + 0.3 = 0.4 s.
  EXPECT_LT(withOverlap.makespan, 0.32);
  EXPECT_GT(without.makespan, 0.39);
}

TEST(Nonblocking, WaitAllCompletesInPostingOrder) {
  ProgramBuilder b(3);
  const auto first = b.irecv(0, 1, 0);
  const auto second = b.irecv(0, 2, 0);
  b.wait(0, first);
  b.wait(0, second);
  b.send(1, 0, 0, 64);
  b.send(2, 0, 0, 64);
  SimReport report;
  const trace::Trace tr = simulate(b.finish(), quietOptions(), &report);
  lint::requireStructurallyValid(tr);
  EXPECT_EQ(report.messages, 2u);
  // Two MPI_Wait frames on rank 0.
  const auto fWait = *tr.functions.find("MPI_Wait");
  std::size_t waits = 0;
  for (const auto& frame : trace::collectFrames(tr.processes[0])) {
    waits += frame.function == fWait;
  }
  EXPECT_EQ(waits, 2u);
}

TEST(Nonblocking, MissingSenderDeadlocks) {
  ProgramBuilder b(2);
  const auto f = b.function("work");
  const auto req = b.irecv(0, 1, 5);
  b.wait(0, req);
  b.compute(1, f, 0.01);
  EXPECT_THROW(simulate(b.finish(), quietOptions()), Error);
}

TEST(Nonblocking, BlockingOnlyPolicyChargesWaitNotPost) {
  // An iteration does: irecv + isend (cheap posts), compute, wait.
  // Under the Paradigm policy all four MPI calls are subtracted; under
  // BlockingOnly only MPI_Wait is - nonblocking posts keep their cost.
  ProgramBuilder b(2);
  const auto fStep = b.function("step");
  const auto fWork = b.function("work");
  for (std::uint32_t r = 0; r < 2; ++r) {
    const std::uint32_t peer = 1 - r;
    b.enter(r, fStep);
    const auto rr = b.irecv(r, peer, 0);
    b.compute(r, fWork, r == 0 ? 0.05 : 0.01);  // rank 0 sends late
    const auto rs = b.isend(r, peer, 0, 1024);
    b.wait(r, rr);
    b.wait(r, rs);
    b.leave(r, fStep);
  }
  const trace::Trace tr = simulate(b.finish(), quietOptions());
  const auto step = *tr.functions.find("step");

  const analysis::SosResult paradigm =
      analysis::analyzeSos(tr, step, analysis::SyncClassifier{});
  const analysis::SosResult blocking = analysis::analyzeSos(
      tr, step, analysis::SyncClassifier(analysis::SyncPolicy::BlockingOnly));

  for (trace::ProcessId p = 0; p < 2; ++p) {
    // BlockingOnly subtracts less (the post overheads stay in SOS).
    EXPECT_LE(blocking.process(p)[0].syncTime,
              paradigm.process(p)[0].syncTime);
  }
  // Rank 1's wait dominates and is charged under both policies.
  EXPECT_GT(blocking.process(1)[0].syncTime, 0u);
  const double waitSeconds =
      tr.toSeconds(blocking.process(1)[0].syncTime);
  EXPECT_NEAR(waitSeconds, 0.04, 0.005);  // ~the 0.05 - 0.01 gap
}

}  // namespace
}  // namespace perfvar::sim
