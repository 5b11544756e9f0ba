/// \file quickstart.cpp
/// Minimal end-to-end tour of the perfvar API:
///   1. record (here: simulate) a parallel program trace,
///   2. run the variation-analysis pipeline (dominant function -> SOS-times
///      -> hotspot report),
///   3. render the SOS heatmap that guides the analyst to the bottleneck.

#include <cstdio>
#include <iostream>

#include "analysis/pipeline.hpp"
#include "sim/program.hpp"
#include "sim/simulator.hpp"
#include "trace/stats.hpp"
#include "vis/heatmap.hpp"

int main() {
  using namespace perfvar;

  // --- 1. describe a small iterative MPI program: 8 ranks, 40 iterations,
  //        rank 5 carries 60% more load than the others. ------------------
  constexpr std::uint32_t kRanks = 8;
  constexpr std::size_t kIterations = 40;
  sim::ProgramBuilder program(kRanks);
  const auto fStep = program.function("solver_step", "SOLVER");
  const auto fCompute = program.function("stencil_update", "SOLVER");
  for (std::size_t it = 0; it < kIterations; ++it) {
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      program.enter(r, fStep);
      const double work = r == 5 ? 1.6e-3 : 1.0e-3;
      program.compute(r, fCompute, work);
      program.allreduce(r, 64);
      program.leave(r, fStep);
    }
  }

  sim::SimOptions simOptions;
  simOptions.noise.sigma = 0.02;
  const trace::Trace tr = sim::simulate(program.finish(), simOptions);
  std::cout << "--- trace ---\n" << trace::formatStats(trace::computeStats(tr));

  // --- 2. run the paper's pipeline. ---------------------------------------
  const analysis::AnalysisResult result = analysis::analyzeTrace(tr);
  std::cout << '\n' << analysis::formatAnalysis(tr, result);

  // --- 3. visualize: one row per rank, one column per iteration, color =
  //        SOS-time on the cold/hot scale. Rank 5 lights up red. -----------
  vis::HeatmapOptions heat;
  heat.title = "SOS-time per (rank, iteration)";
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    heat.rowLabels.push_back(tr.processes[r].name);
  }
  const auto matrix = result.sos->sosMatrixSeconds();
  std::cout << '\n' << vis::renderHeatmapAscii(matrix, heat, 80);

  vis::renderHeatmapSvg(matrix, heat).save("quickstart_sos.svg");
  std::cout << "\nwrote quickstart_sos.svg\n";

  // The report names the culprit; assert it for good measure.
  const trace::ProcessId worst = result.variation.slowestProcess();
  std::cout << "slowest process: " << tr.processes[worst].name << '\n';
  return worst == 5 ? 0 : 1;
}
