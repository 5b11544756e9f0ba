/// Allocation count of the dependency-graph build. The binary replaces the
/// global operator new with a counting one, so it holds no other suite:
/// a graph build must allocate per worker range, not per rank, and the
/// count of a one-thread build must not grow with the rank count.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "analysis/depgraph.hpp"
#include "trace/trace.hpp"
#include "trace/view.hpp"

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

namespace perfvar::analysis {
namespace {

using trace::Event;

/// A ring of `ranks` ranks with identical per-rank content: each of eight
/// steps computes in `work`, sends to the right neighbour and receives
/// from the left one inside an MPI (sync) region.
trace::Trace ringTrace(std::size_t ranks) {
  trace::Trace tr;
  const trace::FunctionId work = tr.functions.intern("work", "APP");
  const trace::FunctionId recv =
      tr.functions.intern("MPI_Recv", "MPI", trace::Paradigm::MPI);
  for (std::size_t p = 0; p < ranks; ++p) {
    trace::ProcessTrace proc;
    proc.name = "p" + std::to_string(p);
    const auto right = static_cast<trace::ProcessId>((p + 1) % ranks);
    const auto left = static_cast<trace::ProcessId>((p + ranks - 1) % ranks);
    for (trace::Timestamp step = 0; step < 8; ++step) {
      const trace::Timestamp t = step * 100;
      proc.events.push_back(Event::enter(t, work));
      proc.events.push_back(Event::mpiSend(t + 40, right, 0, 8));
      proc.events.push_back(Event::leave(t + 50, work));
      proc.events.push_back(Event::enter(t + 50, recv));
      proc.events.push_back(Event::mpiRecv(t + 90, left, 0, 8));
      proc.events.push_back(Event::leave(t + 90, recv));
    }
    tr.processes.push_back(std::move(proc));
  }
  return tr;
}

/// Allocations of one single-thread graph build of `tr`, less those of a
/// plain pin sweep over its ranks (an eager pin allocates once).
std::int64_t buildAllocations(const trace::Trace& tr) {
  const trace::TraceView view(tr);
  std::uint64_t before = gAllocations.load();
  for (trace::ProcessId p = 0; p < view.processCount(); ++p) {
    (void)view.rank(p);
  }
  const auto sweep = static_cast<std::int64_t>(gAllocations.load() - before);

  before = gAllocations.load();
  {
    const DepGraph graph = buildDepGraph(view);
    EXPECT_EQ(graph.stats.matchedPairs, tr.processes.size() * 8);
  }
  const auto build = static_cast<std::int64_t>(gAllocations.load() - before);
  return build - sweep;
}

TEST(DepGraphAllocations, BuildAllocatesPerRangeNotPerRank) {
  const std::int64_t small = buildAllocations(ringTrace(64));
  const std::int64_t large = buildAllocations(ringTrace(1024));
  EXPECT_GT(small, 0);
  EXPECT_LE(large - small, 64) << "64 ranks: " << small
                               << " allocations, 1024 ranks: " << large;
}

}  // namespace
}  // namespace perfvar::analysis
