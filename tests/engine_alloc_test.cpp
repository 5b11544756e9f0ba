/// Allocation count of a re-export the engine serves from the render kept
/// with its cache entry. The binary replaces the global operator new with
/// a counting one, so it holds no other suite: a warm re-export copies
/// the kept bytes into the caller's stream, so its allocation count must
/// not grow with the report's size.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "apps/cosmo_specs.hpp"
#include "engine/engine.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace {

std::atomic<std::uint64_t> gAllocations{0};

}  // namespace

void* operator new(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

// Not inlined: GCC would otherwise see free() on operator new's result
// and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }

[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace perfvar::engine {
namespace {

using analysis::ExportFormat;

/// A stream buffer that discards what it is given: the caller's side of
/// a copy then allocates nothing either.
class DiscardBuf final : public std::streambuf {
protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

trace::Trace cosmo(std::size_t grid, std::size_t timesteps) {
  apps::CosmoSpecsConfig cfg;
  cfg.gridX = grid;
  cfg.gridY = grid;
  cfg.timesteps = timesteps;
  const auto scenario = apps::buildCosmoSpecs(cfg);
  return sim::simulate(scenario.program, scenario.simOptions);
}

/// Allocations of each warm answer, in a fixed order: formatReport, the
/// five exportReport formats, formatDepReport and the three
/// exportDepReport formats. Each answer is rendered once cold first.
std::vector<std::int64_t> warmAllocations(trace::Trace tr) {
  AnalysisEngine eng{std::move(tr)};
  DiscardBuf buf;
  std::ostream out(&buf);
  std::vector<std::int64_t> counts;
  const auto count = [&](auto&& answer) {
    answer();
    const std::uint64_t before = gAllocations.load();
    answer();
    counts.push_back(static_cast<std::int64_t>(gAllocations.load() - before));
  };
  count([&] { (void)eng.formatReport(); });
  for (const ExportFormat format :
       {ExportFormat::Text, ExportFormat::Json, ExportFormat::Csv,
        ExportFormat::CsvIterations, ExportFormat::CsvHotspots}) {
    count([&] { eng.exportReport(format, out); });
  }
  count([&] { (void)eng.formatDepReport(); });
  for (const ExportFormat format :
       {ExportFormat::Text, ExportFormat::Json, ExportFormat::Csv}) {
    count([&] { eng.exportDepReport(format, out); });
  }
  return counts;
}

TEST(EngineAllocations, KeptReExportAllocatesIndependentlyOfReportSize) {
  const std::vector<std::int64_t> small = warmAllocations(cosmo(4, 12));
  const std::vector<std::int64_t> large = warmAllocations(cosmo(12, 48));
  ASSERT_EQ(small.size(), large.size());
  for (std::size_t i = 0; i < small.size(); ++i) {
    SCOPED_TRACE("answer " + std::to_string(i));
    EXPECT_EQ(small[i], large[i]);
    // The string-returning calls copy the kept bytes once.
    EXPECT_LE(small[i], 1);
  }
}

}  // namespace
}  // namespace perfvar::engine
