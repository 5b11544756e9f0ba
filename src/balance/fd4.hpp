#ifndef PERFVAR_BALANCE_FD4_HPP
#define PERFVAR_BALANCE_FD4_HPP

/// \file fd4.hpp
/// FD4-style dynamic load balancer for 2-D block grids.
///
/// Models the "Four-Dimensional Distributed Dynamic Data structures"
/// balancer the paper's second case study uses (COSMO-SPECS+FD4, Lieber
/// et al.): grid blocks are ordered along a Hilbert space-filling curve
/// and the curve is re-partitioned into contiguous rank ranges whenever
/// the measured block weights drift out of balance. Hysteresis avoids
/// rebalancing on every step; the balancer reports the migration volume
/// of each step.

#include <cstdint>
#include <span>
#include <vector>

#include "balance/hilbert.hpp"
#include "balance/partition.hpp"

namespace perfvar::balance {

/// Options of the FD4-style balancer.
struct Fd4Options {
  /// Rebalance when the current imbalance lambda exceeds this threshold.
  double imbalanceThreshold = 0.05;
  /// Use the optimal min-max partitioner (greedy otherwise).
  bool optimalPartition = true;
};

/// Result of one balancing step.
struct Fd4StepResult {
  bool rebalanced = false;
  double imbalanceBefore = 0.0;
  double imbalanceAfter = 0.0;
  std::size_t migratedBlocks = 0;
};

/// Dynamic balancer of a blocksX x blocksY grid over `ranks` ranks.
class Fd4Balancer {
public:
  Fd4Balancer(std::uint32_t blocksX, std::uint32_t blocksY, std::size_t ranks,
              Fd4Options options = {});

  std::size_t ranks() const { return ranks_; }

  /// Curve position of grid block (bx, by).
  std::size_t curveIndex(std::uint32_t bx, std::uint32_t by) const;

  /// Current owner rank of grid block (bx, by).
  std::size_t ownerOf(std::uint32_t bx, std::uint32_t by) const;

  /// Update with measured per-block weights (indexed linearly, by*X+bx)
  /// and rebalance if the imbalance threshold is exceeded.
  Fd4StepResult update(std::span<const double> blockWeights);

  /// Current per-rank total weight under the given block weights.
  std::vector<double> rankLoads(std::span<const double> blockWeights) const;

  /// Current imbalance lambda under the given block weights.
  double imbalance(std::span<const double> blockWeights) const;

private:
  std::vector<double> curveWeights(std::span<const double> blockWeights) const;

  std::uint32_t blocksX_;
  std::uint32_t blocksY_;
  std::size_t ranks_;
  Fd4Options options_;
  /// curve position -> linear block id, and the inverse.
  std::vector<std::size_t> blockAtCurvePos_;
  std::vector<std::size_t> curveOrderOfBlock_;
  ChainPartition partition_;  ///< over curve positions
};

}  // namespace perfvar::balance

#endif  // PERFVAR_BALANCE_FD4_HPP
