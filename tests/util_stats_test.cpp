#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfvar::stats {
namespace {

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_EQ(mean({}), 0.0);
}

TEST(Stats, MeanBasic) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, VarianceAndStddev) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(Stats, VarianceOfSingletonIsZero) {
  const std::vector<double> xs = {42.0};
  EXPECT_EQ(variance(xs), 0.0);
}

TEST(Stats, SummarizeMatchesIndividuals) {
  const std::vector<double> xs = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, xs.size());
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.mean, mean(xs));
  EXPECT_NEAR(s.stddev, stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(s.sum, 31.0);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, QuantileEndpointsAndMidpoint) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.3), 3.0);
}

TEST(Stats, MadOfSymmetricSample) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(mad(xs), 1.0);
}

TEST(Stats, RobustZFlagsOutlier) {
  std::vector<double> xs(50, 1.0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] += 0.01 * static_cast<double>(i % 5);
  }
  const double z = robustZ(10.0, xs);
  EXPECT_GT(z, 100.0);
}

TEST(Stats, RobustZFallsBackToClassicZWhenMadIsZero) {
  // Majority identical -> MAD 0, but stddev > 0.
  const std::vector<double> xs = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0};
  const double z = robustZ(5.0, xs);
  EXPECT_GT(z, 0.0);
  EXPECT_DOUBLE_EQ(z, zScore(5.0, xs));
}

TEST(Stats, RobustZOfConstantSampleIsZero) {
  const std::vector<double> xs(10, 3.0);
  EXPECT_EQ(robustZ(3.0, xs), 0.0);
  EXPECT_EQ(robustZ(9.0, xs), 0.0);
}

TEST(Stats, OlsFitRecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  const OlsFit fit = olsFit(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-10);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Stats, OlsTrendDetectsGrowth) {
  std::vector<double> ys;
  for (int i = 0; i < 50; ++i) {
    ys.push_back(1.0 + 0.1 * i);
  }
  const OlsFit fit = olsTrend(ys);
  EXPECT_NEAR(fit.slope, 0.1, 1e-12);
}

TEST(Stats, OlsDegenerateInputs) {
  EXPECT_EQ(olsTrend(std::vector<double>{5.0}).slope, 0.0);
  const std::vector<double> xs = {2.0, 2.0, 2.0};
  const std::vector<double> ys = {1.0, 2.0, 3.0};
  EXPECT_EQ(olsFit(xs, ys).slope, 0.0);  // zero x-variance
}

TEST(Stats, PearsonPerfectAndAnti) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> up = {2.0, 4.0, 6.0, 8.0};
  const std::vector<double> down = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(pearson(xs, down), -1.0, 1e-12);
}

TEST(Stats, PearsonOfConstantIsZero) {
  const std::vector<double> xs = {1.0, 1.0, 1.0};
  const std::vector<double> ys = {1.0, 2.0, 3.0};
  EXPECT_EQ(pearson(xs, ys), 0.0);
}

TEST(Stats, SpearmanIsRankBased) {
  // Monotone but nonlinear relation: Spearman 1, Pearson < 1.
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> ys = {1.0, 8.0, 27.0, 64.0, 1000.0};
  EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
  EXPECT_LT(pearson(xs, ys), 1.0);
}

TEST(Stats, RanksAverageTies) {
  const std::vector<double> xs = {10.0, 20.0, 20.0, 30.0};
  const auto r = ranks(xs);
  EXPECT_DOUBLE_EQ(r[0], 0.0);
  EXPECT_DOUBLE_EQ(r[1], 1.5);
  EXPECT_DOUBLE_EQ(r[2], 1.5);
  EXPECT_DOUBLE_EQ(r[3], 3.0);
}

TEST(Stats, ImbalanceFactorBalanced) {
  const std::vector<double> xs = {2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(imbalanceFactor(xs), 0.0);
}

TEST(Stats, ImbalanceFactorSkewed) {
  const std::vector<double> xs = {1.0, 1.0, 4.0};
  EXPECT_DOUBLE_EQ(imbalanceFactor(xs), 1.0);  // max 4 / mean 2 - 1
}

TEST(Stats, ImbalanceLossBounds) {
  const std::vector<double> xs = {1.0, 1.0, 4.0};
  const double loss = imbalanceLoss(xs);
  EXPECT_GT(loss, 0.0);
  EXPECT_LT(loss, 1.0);
  EXPECT_DOUBLE_EQ(loss, (4.0 - 2.0) / 4.0);
}

TEST(Stats, HistogramCountsSumToInput) {
  const std::vector<double> xs = {0.0, 0.1, 0.5, 0.9, 1.0};
  const auto h = histogram(xs, 4);
  std::size_t total = 0;
  for (const auto c : h) {
    total += c;
  }
  EXPECT_EQ(total, xs.size());
  EXPECT_EQ(h.back(), 2u);  // 0.9 and 1.0 land in the last bucket
}

TEST(Stats, HistogramOfConstantGoesToFirstBucket) {
  const std::vector<double> xs = {5.0, 5.0, 5.0};
  const auto h = histogram(xs, 3);
  EXPECT_EQ(h[0], 3u);
}

// Property sweep: robust z of every in-sample point of a well-behaved
// normal sample stays small, for several sample sizes.
class RobustZSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RobustZSweep, InSamplePointsAreNotOutliers) {
  Rng rng(GetParam());
  std::vector<double> xs;
  for (std::size_t i = 0; i < 200 + GetParam(); ++i) {
    xs.push_back(rng.normal(10.0, 1.0));
  }
  for (const double x : xs) {
    EXPECT_LT(std::abs(robustZ(x, xs)), 6.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RobustZSweep,
                         ::testing::Values(1, 2, 3, 17, 99));

// ---- selection-kernel bit identity ----------------------------------------
//
// The nth_element-based kernels and the batched leave-one-out scorer must
// match the sort-based reference implementations bit for bit (EXPECT_EQ
// on doubles, not EXPECT_NEAR): the parallel-analysis determinism
// contract and the golden-report tests both depend on it.

namespace {

// Straightforward sort-based implementations: the oracles the optimized
// kernels must match bit for bit.

std::vector<double> sorted(std::span<const double> xs) {
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  return v;
}

double medianOfSorted(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  const std::size_t n = v.size();
  if (n % 2 == 1) {
    return v[n / 2];
  }
  return 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double medianReference(std::span<const double> xs) {
  return medianOfSorted(sorted(xs));
}

double quantileReference(std::span<const double> xs, double q) {
  PERFVAR_REQUIRE(q >= 0.0 && q <= 1.0, "quantile: q must be in [0,1]");
  if (xs.empty()) {
    return 0.0;
  }
  const std::vector<double> v = sorted(xs);
  if (v.size() == 1) {
    return v[0];
  }
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double madReference(std::span<const double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  const double med = medianOfSorted(sorted(xs));
  std::vector<double> dev;
  dev.reserve(xs.size());
  for (const double x : xs) {
    dev.push_back(std::abs(x - med));
  }
  std::sort(dev.begin(), dev.end());
  return medianOfSorted(dev);
}

std::vector<double> leaveOneOutZReference(std::span<const double> xs) {
  const std::size_t n = xs.size();
  std::vector<double> out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> others;
    others.reserve(n > 0 ? n - 1 : 0);
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) {
        others.push_back(xs[j]);
      }
    }
    out[i] = referenceZ(xs[i], others);
  }
  return out;
}

std::vector<double> randomSample(Rng& rng, std::size_t n, bool withTies) {
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(withTies ? static_cast<double>(rng.uniformInt(0, 9))
                          : rng.normal(5.0, 2.0));
  }
  return xs;
}

}  // namespace

TEST(StatsBitIdentity, MedianMatchesReferenceOnEdgeCases) {
  const std::vector<std::vector<double>> cases = {
      {},
      {3.25},
      {2.0, 1.0},
      {7.0, 7.0, 7.0},
      {1.0, 2.0, 3.0, 4.0},
      {-0.0, 0.0},
      {1e300, -1e300, 3.0},
  };
  for (const auto& xs : cases) {
    EXPECT_EQ(median(xs), medianReference(xs));
    EXPECT_EQ(mad(xs), madReference(xs));
  }
}

TEST(StatsBitIdentity, RandomSweepMedianQuantileMad) {
  Rng rng(42);
  for (const bool withTies : {false, true}) {
    for (std::size_t n = 1; n <= 64; ++n) {
      const std::vector<double> xs = randomSample(rng, n, withTies);
      EXPECT_EQ(median(xs), medianReference(xs));
      EXPECT_EQ(mad(xs), madReference(xs));
      for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
        EXPECT_EQ(quantile(xs, q), quantileReference(xs, q))
            << "n=" << n << " q=" << q << " ties=" << withTies;
      }
    }
  }
}

TEST(StatsBitIdentity, LeaveOneOutMatchesNaiveLoop) {
  Rng rng(7);
  for (const bool withTies : {false, true}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{2}, std::size_t{3},
                                std::size_t{4}, std::size_t{5},
                                std::size_t{17}, std::size_t{64},
                                std::size_t{101}}) {
      const std::vector<double> xs = randomSample(rng, n, withTies);
      const std::vector<double> fast = leaveOneOutZ(xs);
      const std::vector<double> ref = leaveOneOutZReference(xs);
      ASSERT_EQ(fast.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(fast[i], ref[i])
            << "n=" << n << " i=" << i << " ties=" << withTies;
      }
    }
  }
}

TEST(StatsBitIdentity, LeaveOneOutDegenerateSamples) {
  const std::vector<std::vector<double>> cases = {
      {5.0, 5.0, 5.0, 5.0},              // constant -> all zeros
      {5.0, 5.0, 5.0, 9.0},              // MAD collapses without the outlier
      {1.0, 1.0, 2.0, 2.0},              // heavy ties
      {0.0, 0.0, 0.0, 1e-12},            // near-zero constant reference
      {3.0, 100.0},                      // n = 2: empty scale both ways
      {-2.0, -2.0, -2.0, -2.0, 7.5, 7.5},
  };
  for (const auto& xs : cases) {
    const std::vector<double> fast = leaveOneOutZ(xs);
    const std::vector<double> ref = leaveOneOutZReference(xs);
    ASSERT_EQ(fast.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(fast[i], ref[i]) << "i=" << i;
    }
  }
}

TEST(StatsBitIdentity, RobustZSortedMatchesRobustZ) {
  std::vector<std::vector<double>> samples = {
      {5.0, 5.0, 5.0, 5.0},  // constant: MAD and stddev are zero
      {5.0, 5.0, 5.0, 9.0},  // MAD zero: classic-z fallback
      {1.0, 1.0, 2.0, 2.0},
      {-2.0, -2.0, -2.0, -2.0, 7.5, 7.5},
  };
  Rng rng(19);
  for (const bool withTies : {false, true}) {
    for (std::size_t n = 0; n <= 64; ++n) {
      samples.push_back(randomSample(rng, n, withTies));
    }
  }
  for (const std::vector<double>& xs : samples) {
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> probes = {-3.0, 4.0, 25.0};
    probes.insert(probes.end(), xs.begin(), xs.end());
    for (const double x : probes) {
      EXPECT_EQ(robustZSorted(x, sorted, xs), robustZ(x, xs))
          << "n=" << xs.size() << " x=" << x;
    }
  }
}

TEST(StatsBitIdentity, RobustZAndReferenceZUnchangedByScratchReuse) {
  // Interleave kernels so each call inherits a dirty scratch buffer from
  // a different predecessor; results must not depend on it.
  Rng rng(11);
  const std::vector<double> a = randomSample(rng, 33, false);
  const std::vector<double> b = randomSample(rng, 7, true);
  const double za1 = robustZ(4.0, a);
  (void)median(b);
  (void)mad(a);
  const double za2 = robustZ(4.0, a);
  EXPECT_EQ(za1, za2);
  const double ra1 = referenceZ(4.0, b);
  (void)quantile(a, 0.73);
  const double ra2 = referenceZ(4.0, b);
  EXPECT_EQ(ra1, ra2);
}

}  // namespace
}  // namespace perfvar::stats
