#include "balance/fd4.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace perfvar::balance {

Fd4Balancer::Fd4Balancer(std::uint32_t blocksX, std::uint32_t blocksY,
                         std::size_t ranks, Fd4Options options)
    : blocksX_(blocksX),
      blocksY_(blocksY),
      ranks_(ranks),
      options_(options) {
  PERFVAR_REQUIRE(blocksX >= 1 && blocksY >= 1, "grid must be non-empty");
  PERFVAR_REQUIRE(ranks >= 1, "need at least one rank");
  const std::size_t nBlocks =
      static_cast<std::size_t>(blocksX) * static_cast<std::size_t>(blocksY);
  PERFVAR_REQUIRE(nBlocks >= ranks,
                  "need at least one block per rank");

  // Order blocks along a Hilbert curve over the covering power-of-two
  // grid, skipping curve cells outside the actual block grid.
  const HilbertCurve curve(hilbertOrderFor(std::max(blocksX, blocksY)));
  blockAtCurvePos_.reserve(nBlocks);
  curveOrderOfBlock_.assign(nBlocks, 0);
  for (std::uint64_t i = 0; i < curve.cells(); ++i) {
    const auto [x, y] = curve.toXY(i);
    if (x < blocksX && y < blocksY) {
      const std::size_t blockId =
          static_cast<std::size_t>(y) * blocksX + x;
      curveOrderOfBlock_[blockId] = blockAtCurvePos_.size();
      blockAtCurvePos_.push_back(blockId);
    }
  }
  PERFVAR_ASSERT(blockAtCurvePos_.size() == nBlocks,
                 "curve does not cover the block grid");

  // Initial partition: uniform weights.
  const std::vector<double> uniform(nBlocks, 1.0);
  partition_ = partitionOptimal(uniform, ranks_);
}

std::size_t Fd4Balancer::curveIndex(std::uint32_t bx, std::uint32_t by) const {
  PERFVAR_REQUIRE(bx < blocksX_ && by < blocksY_, "block out of range");
  return curveOrderOfBlock_[static_cast<std::size_t>(by) * blocksX_ + bx];
}

std::size_t Fd4Balancer::ownerOf(std::uint32_t bx, std::uint32_t by) const {
  return partition_.ownerOf(curveIndex(bx, by));
}

std::vector<double> Fd4Balancer::curveWeights(
    std::span<const double> blockWeights) const {
  PERFVAR_REQUIRE(blockWeights.size() == blockAtCurvePos_.size(),
                  "weight count must equal block count");
  std::vector<double> w(blockWeights.size());
  for (std::size_t pos = 0; pos < blockAtCurvePos_.size(); ++pos) {
    w[pos] = blockWeights[blockAtCurvePos_[pos]];
  }
  return w;
}

Fd4StepResult Fd4Balancer::update(std::span<const double> blockWeights) {
  const std::vector<double> w = curveWeights(blockWeights);
  Fd4StepResult result;
  result.imbalanceBefore = partitionImbalance(partition_, w);
  result.imbalanceAfter = result.imbalanceBefore;
  if (result.imbalanceBefore <= options_.imbalanceThreshold) {
    return result;
  }
  const ChainPartition next = options_.optimalPartition
                                  ? partitionOptimal(w, ranks_)
                                  : partitionGreedy(w, ranks_);
  result.migratedBlocks = migrationCount(partition_, next, w.size());
  partition_ = next;
  result.rebalanced = true;
  result.imbalanceAfter = partitionImbalance(partition_, w);
  return result;
}

std::vector<double> Fd4Balancer::rankLoads(
    std::span<const double> blockWeights) const {
  const std::vector<double> w = curveWeights(blockWeights);
  std::vector<double> loads(ranks_, 0.0);
  for (std::size_t rank = 0; rank < ranks_; ++rank) {
    for (std::size_t pos = partition_.begin(rank);
         pos < partition_.end(rank); ++pos) {
      loads[rank] += w[pos];
    }
  }
  return loads;
}

double Fd4Balancer::imbalance(std::span<const double> blockWeights) const {
  return partitionImbalance(partition_, curveWeights(blockWeights));
}

}  // namespace perfvar::balance
