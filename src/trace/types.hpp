#ifndef PERFVAR_TRACE_TYPES_HPP
#define PERFVAR_TRACE_TYPES_HPP

/// \file types.hpp
/// Fundamental identifier and time types of the trace data model.
///
/// The model follows the structure of OTF2/Score-P traces: a trace holds
/// global *definitions* (functions, metrics, processes) plus one
/// time-sorted event stream per process ("location" in OTF2 terms).

#include <cstdint>
#include <limits>
#include <string>

namespace perfvar::trace {

/// Integer timestamp in clock ticks. The trace records its tick resolution
/// (ticks per second); the default is nanoseconds.
using Timestamp = std::uint64_t;

/// Index of a process (MPI rank / OTF2 location).
using ProcessId = std::uint32_t;

/// Identifier of a function (OTF2 region) definition.
using FunctionId = std::uint32_t;

/// Identifier of a metric (hardware counter / derived value) definition.
using MetricId = std::uint32_t;

inline constexpr FunctionId kInvalidFunction =
    std::numeric_limits<FunctionId>::max();
inline constexpr MetricId kInvalidMetric = std::numeric_limits<MetricId>::max();

/// Programming-model classification of a function, mirroring Score-P's
/// region paradigms. The synchronization-oblivious analysis uses this to
/// decide which invocations count as synchronization/communication.
enum class Paradigm : std::uint8_t {
  Compute,  ///< user/application computation
  MPI,      ///< MPI API calls
  OpenMP,   ///< OpenMP runtime constructs (barriers, etc.)
  IO,       ///< file input/output
  Memory,   ///< allocation and data movement
  Other,    ///< anything else (instrumentation overhead, ...)
};

/// Human-readable paradigm name ("COMPUTE", "MPI", ...).
const char* paradigmName(Paradigm p);

/// How a metric's samples are to be interpreted.
enum class MetricMode : std::uint8_t {
  Accumulated,  ///< monotonically accumulated counter (e.g. PAPI_TOT_CYC)
  Absolute,     ///< instantaneous value (e.g. memory usage)
};

/// Seconds represented by `ticks` at `resolution` ticks per second.
inline double ticksToSeconds(Timestamp ticks, std::uint64_t resolution) {
  return static_cast<double>(ticks) / static_cast<double>(resolution);
}

/// Ticks represented by `s` seconds at `resolution` ticks per second
/// (rounded to nearest).
Timestamp secondsToTicks(double s, std::uint64_t resolution);

}  // namespace perfvar::trace

#endif  // PERFVAR_TRACE_TYPES_HPP
