#ifndef PERFVAR_BENCH_SUITE_COUNTERS_HPP
#define PERFVAR_BENCH_SUITE_COUNTERS_HPP

/// \file counters.hpp
/// The benchmark's only reads of the program's stats structs
/// (TraceViewStats, engine::CacheStats, server::ServiceStats). When those
/// structs are replaced, counters.cpp is the one file to change.

#include <cstdint>

namespace perfvar::trace {
class TraceView;
}
namespace perfvar::engine {
class AnalysisEngine;
}
namespace perfvar::server {
class TraceService;
}

namespace perfvar::bench {

/// Shard-cache counters of an out-of-core view.
struct ShardCounters {
  std::uint64_t decodes = 0;
  std::uint64_t hits = 0;
  std::uint64_t peakResidentBytes = 0;
};
ShardCounters shardCounters(const trace::TraceView& view);

/// Stage-cache counters of an engine.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};
CacheCounters cacheCounters(const engine::AnalysisEngine& engine);

/// Traces resident in a server.
std::uint64_t residentTraces(const server::TraceService& service);

}  // namespace perfvar::bench

#endif  // PERFVAR_BENCH_SUITE_COUNTERS_HPP
