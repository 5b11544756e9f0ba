#include "balance/hilbert.hpp"

#include "util/error.hpp"

namespace perfvar::balance {

HilbertCurve::HilbertCurve(unsigned order) : order_(order) {
  PERFVAR_REQUIRE(order >= 1 && order <= 15,
                  "hilbert order must be in [1, 15]");
  side_ = 1u << order;
}

std::pair<std::uint32_t, std::uint32_t> HilbertCurve::toXY(
    std::uint64_t index) const {
  PERFVAR_REQUIRE(index < cells(), "hilbert index out of range");
  std::uint32_t x = 0;
  std::uint32_t y = 0;
  std::uint64_t t = index;
  for (std::uint32_t s = 1; s < side_; s *= 2) {
    const std::uint32_t rx = static_cast<std::uint32_t>((t / 2) & 1);
    const std::uint32_t ry = static_cast<std::uint32_t>((t ^ rx) & 1);
    if (ry == 0) {
      if (rx == 1) {
        x = s - 1 - x;
        y = s - 1 - y;
      }
      std::swap(x, y);
    }
    x += s * rx;
    y += s * ry;
    t /= 4;
  }
  return {x, y};
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> HilbertCurve::traversal()
    const {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;
  order.reserve(static_cast<std::size_t>(cells()));
  for (std::uint64_t i = 0; i < cells(); ++i) {
    order.push_back(toXY(i));
  }
  return order;
}

unsigned hilbertOrderFor(std::uint32_t side) {
  PERFVAR_REQUIRE(side >= 1, "side must be positive");
  unsigned order = 1;
  while ((1u << order) < side) {
    ++order;
  }
  PERFVAR_REQUIRE(order <= 15, "side too large for hilbert curve");
  return order;
}

}  // namespace perfvar::balance
