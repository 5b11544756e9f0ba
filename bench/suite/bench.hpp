#ifndef PERFVAR_BENCH_SUITE_BENCH_HPP
#define PERFVAR_BENCH_SUITE_BENCH_HPP

/// \file bench.hpp
/// Shared vocabulary of perfvar_bench: run settings, measurements, the
/// workload table and small timing/file helpers.
///
/// A run has two processes. The parent generates the seeded inputs and
/// the reference outputs into a work directory, starts the child, and
/// checks what the child wrote back. The child reads only those files
/// and does the timed work, so its peak memory is the program's alone.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfvar::bench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Settings of one workload run, identical in the parent and its child.
struct RunContext {
  std::string workload;
  std::string dir;              ///< work directory: inputs, references, outputs
  std::uint64_t seed = 2026;
  double seconds = 20.0;        ///< nominal length of the timed phase
  bool trace = false;           ///< traced run: per-layer metrics
  bool smoke = false;           ///< tiny inputs, every check still on
  std::size_t nproc = 1;        ///< CPUs this process may run on

  std::string path(std::string_view file) const {
    return dir + "/" + std::string(file);
  }

  /// Operations of a timed phase: `perSecond` for each nominal second,
  /// `smokeCount` in smoke runs. The count depends on the arguments
  /// alone, never on the clock, so a faster program does the same work
  /// in less time. `perSecond` is tuned so the seed commit takes about
  /// `seconds` on a 4-CPU host.
  std::size_t count(double perSecond, std::size_t smokeCount) const;
};

/// One measured value.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What a child measured.
struct Measurements {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;  ///< operations started
  std::uint64_t failed = 0;     ///< exceptions, Error/Evicted finals, mismatches

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1);
  /// The metric called `name`, or null.
  const Metric* find(std::string_view name) const;
};

/// Linear-interpolated quantile, q in [0, 1], of unsorted samples.
double quantile(std::vector<double> samples, double q);

/// Record `<op>_p50_<unit>` and `<op>_p90_<unit>` from samples in seconds
/// (`unit` is "s" or "ms").
void addLatency(Measurements& out, std::string_view op,
                const std::vector<double>& seconds, std::string_view unit);

/// Report a failed operation on stderr (the first few of a run).
void noteFailure(std::string_view what);

/// One benchmark workload. The function pointers run in different
/// processes: generate and check in the parent, run and probe in the
/// child.
struct Workload {
  std::string_view name;
  /// Root span name of one timed operation; its latency metrics are
  /// `<op>_p50_<opUnit>` and `<op>_p90_<opUnit>`.
  std::string_view op;
  std::string_view opUnit;
  /// The workload's own rate behind the gated throughput_per_s.
  std::string_view throughput;
  /// Parent: write seeded inputs and reference outputs into ctx.dir.
  void (*generate)(const RunContext& ctx);
  /// Child: the timed phase. Spans are recorded when tracing is enabled.
  void (*run)(const RunContext& ctx, Measurements& out);
  /// Child, traced runs only: the per-layer probes on this input.
  void (*probe)(const RunContext& ctx, Measurements& out);
  /// Parent: compare the child's outputs with the references; one line
  /// per mismatch.
  std::vector<std::string> (*check)(const RunContext& ctx);
};

/// The four workloads, in the order a full run executes them.
const std::vector<Workload>& workloads();

void writeFile(const std::string& path, std::string_view bytes);
std::string readFile(const std::string& path);

/// One-line description of an output mismatch, for check() results.
std::string mismatch(std::string_view what, std::string_view expected,
                     std::string_view actual);

/// The unsigned number right after the first `label` in `text`, 0 when
/// absent (parses the server's Ok summaries, e.g. "flushed 3 chunks").
std::uint64_t numberAfter(std::string_view text, std::string_view label);

}  // namespace perfvar::bench

#endif  // PERFVAR_BENCH_SUITE_BENCH_HPP
