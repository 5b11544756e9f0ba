#ifndef PERFVAR_APPS_SCALE_SYNTHETIC_HPP
#define PERFVAR_APPS_SCALE_SYNTHETIC_HPP

/// \file scale_synthetic.hpp
/// Deterministic six-figure-rank synthetic workload.
///
/// The paper's pipeline is demonstrated on hundreds of ranks; the
/// out-of-core TraceView backend targets runs two to three orders of
/// magnitude larger. This scenario generates such traces without ever
/// materializing them: each rank's event stream is a pure function of
/// (config, rank), so writeScaleTrace() can synthesize rank r, hand it to
/// trace::V2StreamWriter, discard it and move to rank r+1 — peak memory is
/// one rank regardless of whether 1 000 or 100 000 ranks are requested.
///
/// The workload is a bulk-synchronous iteration loop with a planted
/// imbalance, shaped like the paper's COSMO-SPECS case study: every rank
/// computes (jittered per rank and iteration), exchanges halos with its
/// ring neighbors, then waits at a barrier until the slowest rank of that
/// iteration arrives. A deterministic subset of "culprit" ranks develops a
/// hiccup halfway through the run, so the later iterations show the
/// compute/wait anticorrelation the SOS analysis detects.
///
/// buildScaleTrace() materializes the identical trace in memory; for any
/// config, saving it with writeBinary (v2) is byte-identical to the
/// streamed file, which is what the eager-vs-lazy differential tests pin.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/definitions.hpp"
#include "trace/event.hpp"
#include "trace/trace.hpp"

namespace perfvar::apps {

/// Configuration of the scale scenario. All costs are in ticks of
/// `resolution`; defaults describe a ~20-iteration millisecond-scale loop.
struct ScaleConfig {
  std::size_t ranks = 1024;
  std::size_t iterations = 20;
  /// Ticks per second of all timestamps (default nanoseconds).
  std::uint64_t resolution = 1'000'000'000ULL;

  /// Base cost of the compute region per iteration.
  std::uint64_t computeBaseTicks = 800'000;
  /// Uniform per-(rank, iteration) jitter added on top, in [0, jitter).
  std::uint64_t computeJitterTicks = 200'000;

  /// Per-mille of ranks that become culprits (deterministic subset).
  std::uint32_t hiccupPerMille = 10;
  /// Extra compute ticks a culprit pays each affected iteration.
  std::uint64_t hiccupExtraTicks = 600'000;
  /// First iteration (0-based) at which culprits slow down; defaults to
  /// the second half of the run. ~0ULL means iterations / 2.
  std::size_t hiccupStartIteration = static_cast<std::size_t>(-1);

  /// Fixed cost of the exchange region beyond the barrier wait; must be
  /// >= 8 so the send/recv/metric events fit before the barrier exit.
  std::uint64_t exchangeTicks = 50'000;
  /// Payload of each ring halo message.
  std::uint64_t messageBytes = 64 * 1024;

  /// Per-mille of ranks (the tail of the rank space, deterministic) that
  /// carry an event-dense compute region: skewEventsFactor extra nested
  /// compute enter/leave pairs per iteration, strictly inside the compute
  /// span. Timestamps and analysis results are unchanged — this skews the
  /// per-rank *event count* (and thus replay cost), which is what the
  /// chunk scheduler and the throughput benchmark exercise.
  /// 0 (the default) emits exactly the pre-skew streams, byte for byte.
  std::size_t skewTailPerMille = 0;
  std::size_t skewEventsFactor = 0;

  /// Seed of the deterministic jitter / culprit selection.
  std::uint64_t seed = 2026;
};

/// Interned definitions of the scenario (identical for both backends).
struct ScaleDefs {
  trace::FunctionId mainFunction = trace::kInvalidFunction;
  trace::FunctionId computeFunction = trace::kInvalidFunction;
  trace::FunctionId exchangeFunction = trace::kInvalidFunction;
  trace::MetricId computeTicksMetric = trace::kInvalidMetric;
};

/// Summary returned by writeScaleTrace().
struct ScaleWriteResult {
  std::size_t ranks = 0;
  std::uint64_t events = 0;       ///< total events across all ranks
  std::size_t culpritRanks = 0;   ///< ranks carrying the planted hiccup
};

/// Intern the scenario's functions/metrics into the given registries.
ScaleDefs registerScaleDefs(trace::FunctionRegistry& functions,
                            trace::MetricRegistry& metrics);

/// Process name of rank `rank` ("Rank N").
std::string scaleProcessName(std::size_t rank);

/// True when `rank` is one of the planted culprits under `config`.
bool scaleRankIsCulprit(const ScaleConfig& config, trace::ProcessId rank);

/// The time-sorted event stream of one rank: a pure deterministic
/// function of (config, rank). Both backends below are built from this.
std::vector<trace::Event> scaleRankEvents(const ScaleConfig& config,
                                          trace::ProcessId rank,
                                          const ScaleDefs& defs);

/// Stream the scenario to a PVTF v2 file at `path`, one rank at a time
/// (peak memory = one rank's events). Byte-identical to saving
/// buildScaleTrace(config) with writeBinary v2. Throws perfvar::Error on
/// I/O failure or a config with zero ranks/iterations.
ScaleWriteResult writeScaleTrace(const std::string& path,
                                 const ScaleConfig& config);

/// Materialize the identical trace in memory (small configs / tests).
trace::Trace buildScaleTrace(const ScaleConfig& config);

}  // namespace perfvar::apps

#endif  // PERFVAR_APPS_SCALE_SYNTHETIC_HPP
