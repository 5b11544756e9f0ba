#ifndef PERFVAR_BALANCE_HILBERT_HPP
#define PERFVAR_BALANCE_HILBERT_HPP

/// \file hilbert.hpp
/// Hilbert space-filling curve on a 2^order x 2^order grid.
///
/// FD4 (Lieber et al., PARA 2010) orders grid blocks along a space-filling
/// curve so that contiguous curve ranges form spatially compact, cheap-to-
/// migrate partitions. This is the same device used here by Fd4Balancer.

#include <cstdint>
#include <utility>
#include <vector>

namespace perfvar::balance {

/// Hilbert curve of a fixed order (grid side = 2^order).
class HilbertCurve {
public:
  /// order in [1, 15] (side up to 32768).
  explicit HilbertCurve(unsigned order);

  unsigned order() const { return order_; }
  std::uint32_t side() const { return side_; }
  std::uint64_t cells() const {
    return static_cast<std::uint64_t>(side_) * side_;
  }

  /// Cell coordinates of a curve index; index must be < cells().
  std::pair<std::uint32_t, std::uint32_t> toXY(std::uint64_t index) const;

  /// The full traversal order: result[i] = (x, y) of curve position i.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> traversal() const;

private:
  unsigned order_;
  std::uint32_t side_;
};

/// Smallest order whose grid side covers `side` cells.
unsigned hilbertOrderFor(std::uint32_t side);

}  // namespace perfvar::balance

#endif  // PERFVAR_BALANCE_HILBERT_HPP
