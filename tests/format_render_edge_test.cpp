/// Edge sweeps of the referenceZ fallback behaviour.

#include <gtest/gtest.h>

#include "util/stats.hpp"

namespace perfvar {
namespace {

// --- referenceZ fallback chain ------------------------------------------------------

TEST(ReferenceZ, MadPath) {
  const std::vector<double> ref = {1.0, 2.0, 3.0, 4.0, 100.0};
  EXPECT_GT(stats::referenceZ(50.0, ref), 3.0);
}

TEST(ReferenceZ, StddevFallbackWhenMadZero) {
  // Majority identical -> MAD 0; stddev > 0 takes over.
  const std::vector<double> ref = {5.0, 5.0, 5.0, 5.0, 9.0};
  const double z = stats::referenceZ(7.0, ref);
  EXPECT_GT(z, 0.0);
  EXPECT_LT(z, 100.0);
}

TEST(ReferenceZ, RelativeFallbackForConstantReference) {
  const std::vector<double> ref(8, 10.0);
  EXPECT_EQ(stats::referenceZ(10.0, ref), 0.0);
  EXPECT_GT(stats::referenceZ(10.5, ref), 3.5);
  EXPECT_LT(stats::referenceZ(9.5, ref), -3.5);
}

TEST(ReferenceZ, EmptyReferenceIsZero) {
  EXPECT_EQ(stats::referenceZ(1.0, {}), 0.0);
}

TEST(ReferenceZ, ConstantZeroReferenceUsesAbsoluteEpsilon) {
  const std::vector<double> ref(5, 0.0);
  EXPECT_GT(stats::referenceZ(1e-6, ref), 0.0);
}

}  // namespace
}  // namespace perfvar
