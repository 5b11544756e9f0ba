#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "balance/fd4.hpp"
#include "balance/hilbert.hpp"
#include "balance/partition.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfvar::balance {
namespace {

// --- Hilbert curve -----------------------------------------------------------

class HilbertSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(HilbertSweep, BijectionOverTheWholeGrid) {
  // Every index maps to a distinct in-grid cell, and there are as many
  // indices as cells: toXY is a bijection onto the grid.
  const HilbertCurve curve(GetParam());
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (std::uint64_t d = 0; d < curve.cells(); ++d) {
    const auto [x, y] = curve.toXY(d);
    EXPECT_LT(x, curve.side());
    EXPECT_LT(y, curve.side());
    EXPECT_TRUE(seen.emplace(x, y).second) << "cell revisited at index " << d;
  }
  EXPECT_EQ(seen.size(), curve.cells());
}

TEST_P(HilbertSweep, ConsecutiveIndicesAreGridNeighbors) {
  const HilbertCurve curve(GetParam());
  auto [px, py] = curve.toXY(0);
  for (std::uint64_t d = 1; d < curve.cells(); ++d) {
    const auto [x, y] = curve.toXY(d);
    const auto dx = x > px ? x - px : px - x;
    const auto dy = y > py ? y - py : py - y;
    EXPECT_EQ(dx + dy, 1u) << "jump at index " << d;
    px = x;
    py = y;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, HilbertSweep, ::testing::Values(1, 2, 3, 4, 5));

TEST(Hilbert, OrderForSide) {
  EXPECT_EQ(hilbertOrderFor(1), 1u);
  EXPECT_EQ(hilbertOrderFor(2), 1u);
  EXPECT_EQ(hilbertOrderFor(3), 2u);
  EXPECT_EQ(hilbertOrderFor(40), 6u);
  EXPECT_THROW(HilbertCurve(0), Error);
  EXPECT_THROW(HilbertCurve(16), Error);
}

TEST(Hilbert, TraversalMatchesToXY) {
  const HilbertCurve curve(2);
  const auto order = curve.traversal();
  ASSERT_EQ(order.size(), 16u);
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(order[i], curve.toXY(i));
  }
}

// --- chain partitioning --------------------------------------------------------

TEST(Partition, UniformWeightsSplitEvenly) {
  const std::vector<double> w(12, 1.0);
  const ChainPartition p = partitionOptimal(w, 4);
  EXPECT_EQ(p.parts(), 4u);
  EXPECT_DOUBLE_EQ(p.bottleneck(w), 3.0);
  EXPECT_NEAR(partitionImbalance(p, w), 0.0, 1e-9);
}

TEST(Partition, OwnersAreContiguousAndComplete) {
  const std::vector<double> w = {5, 1, 1, 1, 4, 2, 2, 8};
  const ChainPartition p = partitionOptimal(w, 3);
  const auto owners = p.owners(w.size());
  for (std::size_t i = 1; i < owners.size(); ++i) {
    EXPECT_GE(owners[i], owners[i - 1]);  // non-decreasing = contiguous
  }
  EXPECT_EQ(p.ownerOf(0), 0u);
  EXPECT_EQ(p.ownerOf(w.size() - 1), p.parts() - 1);
}

TEST(Partition, OptimalMatchesBruteForceOnSmallInputs) {
  Rng rng(404);
  for (int trial = 0; trial < 30; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniformInt(1, 9));
    const auto parts = static_cast<std::size_t>(rng.uniformInt(1, 4));
    std::vector<double> w(n);
    for (auto& x : w) {
      x = static_cast<double>(rng.uniformInt(0, 20));
    }
    // Brute force: enumerate all cut placements.
    double best = std::numeric_limits<double>::infinity();
    const std::size_t cutsNeeded = parts - 1;
    std::vector<std::size_t> cuts(cutsNeeded, 0);
    const std::function<void(std::size_t, std::size_t)> rec =
        [&](std::size_t k, std::size_t from) {
          if (k == cutsNeeded) {
            ChainPartition cand;
            cand.cuts.push_back(0);
            for (const auto c : cuts) {
              cand.cuts.push_back(c);
            }
            cand.cuts.push_back(n);
            best = std::min(best, cand.bottleneck(w));
            return;
          }
          for (std::size_t c = from; c <= n; ++c) {
            cuts[k] = c;
            rec(k + 1, c);
          }
        };
    rec(0, 0);
    const ChainPartition p = partitionOptimal(w, parts);
    EXPECT_NEAR(p.bottleneck(w), best, 1e-6)
        << "n=" << n << " parts=" << parts;
  }
}

TEST(Partition, GreedyIsNeverBetterThanOptimal) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> w(50);
    for (auto& x : w) {
      x = rng.uniform(0.0, 10.0);
    }
    const double greedy = partitionGreedy(w, 8).bottleneck(w);
    const double optimal = partitionOptimal(w, 8).bottleneck(w);
    EXPECT_GE(greedy, optimal - 1e-9);
  }
}

TEST(Partition, MorePartsThanItemsLeavesEmptyParts) {
  const std::vector<double> w = {1.0, 2.0};
  const ChainPartition p = partitionOptimal(w, 5);
  EXPECT_EQ(p.parts(), 5u);
  EXPECT_DOUBLE_EQ(p.bottleneck(w), 2.0);
}

TEST(Partition, NegativeWeightsRejected) {
  const std::vector<double> w = {1.0, -2.0};
  EXPECT_THROW(partitionOptimal(w, 2), Error);
}

TEST(Partition, MigrationCountsChangedOwners) {
  const std::vector<double> w = {1, 1, 1, 1};
  ChainPartition a;
  a.cuts = {0, 2, 4};
  ChainPartition b;
  b.cuts = {0, 3, 4};
  EXPECT_EQ(migrationCount(a, b, 4), 1u);  // item 2 moves from part 1 to 0
  EXPECT_EQ(migrationCount(a, a, 4), 0u);
}

// --- FD4 balancer -----------------------------------------------------------------

TEST(Fd4, BalancesSkewedLoadBelowThreshold) {
  Fd4Balancer balancer(8, 8, 4);
  std::vector<double> weights(64, 1.0);
  // Pile load onto one corner.
  for (std::size_t i = 0; i < 8; ++i) {
    weights[i] = 20.0;
  }
  const double before = balancer.imbalance(weights);
  EXPECT_GT(before, 0.05);
  const Fd4StepResult step = balancer.update(weights);
  EXPECT_TRUE(step.rebalanced);
  EXPECT_GT(step.migratedBlocks, 0u);
  EXPECT_LT(step.imbalanceAfter, before);
  EXPECT_LT(balancer.imbalance(weights), 0.3);
}

TEST(Fd4, NoRebalanceWhenAlreadyBalanced) {
  Fd4Balancer balancer(8, 8, 4);
  const std::vector<double> weights(64, 1.0);
  const Fd4StepResult step = balancer.update(weights);
  EXPECT_FALSE(step.rebalanced);
  EXPECT_EQ(step.migratedBlocks, 0u);
}

TEST(Fd4, EveryBlockHasExactlyOneOwner) {
  Fd4Balancer balancer(5, 7, 6);  // non-power-of-two grid
  std::vector<double> weights(35, 1.0);
  weights[17] = 50.0;
  balancer.update(weights);
  // Each block's one owner is a valid rank; the blocks of a rank are one
  // contiguous run of curve positions (the heavy block may leave a rank
  // none); and the owned blocks carry exactly the loads the balancer
  // reports.
  std::vector<double> loads(balancer.ranks(), 0.0);
  std::vector<std::size_t> owned(balancer.ranks(), 0);
  std::vector<std::size_t> first(balancer.ranks(), 35);
  std::vector<std::size_t> last(balancer.ranks(), 0);
  for (std::uint32_t by = 0; by < 7; ++by) {
    for (std::uint32_t bx = 0; bx < 5; ++bx) {
      const std::size_t r = balancer.ownerOf(bx, by);
      ASSERT_LT(r, balancer.ranks());
      loads[r] += weights[by * 5 + bx];
      ++owned[r];
      const std::size_t pos = balancer.curveIndex(bx, by);
      first[r] = std::min(first[r], pos);
      last[r] = std::max(last[r], pos);
    }
  }
  for (std::size_t r = 0; r < balancer.ranks(); ++r) {
    if (owned[r] > 0) {
      EXPECT_EQ(last[r] - first[r] + 1, owned[r]) << "rank " << r;
    }
  }
  EXPECT_EQ(loads, balancer.rankLoads(weights));
}

TEST(Fd4, RankLoadsSumToTotalWeight) {
  Fd4Balancer balancer(8, 8, 5);
  Rng rng(2);
  std::vector<double> weights(64);
  for (auto& w : weights) {
    w = rng.uniform(0.1, 5.0);
  }
  balancer.update(weights);
  const auto loads = balancer.rankLoads(weights);
  double total = 0.0;
  for (const double l : loads) {
    total += l;
  }
  double expected = 0.0;
  for (const double w : weights) {
    expected += w;
  }
  EXPECT_NEAR(total, expected, 1e-9);
}

TEST(Fd4, TracksAMovingHotspotOverTime) {
  Fd4Balancer balancer(16, 16, 8);
  for (int t = 0; t < 10; ++t) {
    std::vector<double> weights(256, 1.0);
    // Hotspot moves along the diagonal.
    const std::size_t hot = static_cast<std::size_t>(t) * 17;
    for (std::size_t i = 0; i < 256; ++i) {
      weights[i] += (i == hot) ? 40.0 : 0.0;
    }
    balancer.update(weights);
    EXPECT_LT(balancer.imbalance(weights), 0.6) << "step " << t;
  }
}

TEST(Fd4, RequiresBlocksPerRank) {
  EXPECT_THROW(Fd4Balancer(2, 2, 10), Error);
}

}  // namespace
}  // namespace perfvar::balance
