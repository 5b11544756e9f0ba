#ifndef PERFVAR_BENCH_SUITE_WORKLOADS_HPP
#define PERFVAR_BENCH_SUITE_WORKLOADS_HPP

/// \file workloads.hpp
/// The four workloads (offline.cpp, query.cpp, serve.cpp) and the input
/// generator two of them share.

#include <cstdint>
#include <string>

#include "bench.hpp"

namespace perfvar::bench {

extern const Workload kOfflineScaleSkewed;
extern const Workload kOfflinePaperCosmo;
extern const Workload kQueryDrilldown;
extern const Workload kServeIngest;

/// The paper's COSMO-SPECS case study (10x10 ranks, noise sigma 0.02,
/// seeded), simulated and saved as PVTF v2 at `path`. Returns the rank
/// the scenario overloads most (54 in the paper).
std::uint32_t writeCosmoTrace(const RunContext& ctx, const std::string& path);

}  // namespace perfvar::bench

#endif  // PERFVAR_BENCH_SUITE_WORKLOADS_HPP
