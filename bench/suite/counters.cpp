#include "counters.hpp"

#include "engine/engine.hpp"
#include "server/service.hpp"
#include "trace/view.hpp"

namespace perfvar::bench {

ShardCounters shardCounters(const trace::TraceView& view) {
  const trace::TraceViewStats s = view.stats();
  return ShardCounters{s.shardDecodes, s.shardHits, s.peakResidentBytes};
}

CacheCounters cacheCounters(const engine::AnalysisEngine& engine) {
  const engine::CacheStats s = engine.cacheStats();
  return CacheCounters{s.hits, s.misses, s.evictions};
}

std::uint64_t residentTraces(const server::TraceService& service) {
  return service.stats().traces;
}

}  // namespace perfvar::bench
