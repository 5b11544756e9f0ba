#ifndef PERFVAR_UTIL_STATS_HPP
#define PERFVAR_UTIL_STATS_HPP

/// \file stats.hpp
/// Descriptive and robust statistics used by the variation analysis.
///
/// Everything operates on spans of doubles; empty-input behaviour is
/// documented per function. Robust location/scale (median, MAD) are the
/// backbone of the outlier scoring in perfvar::analysis.

#include <cstddef>
#include <span>
#include <vector>

namespace perfvar::stats {

/// Summary of a sample: count, extrema, mean, standard deviation (population).
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  double sum = 0.0;
};

/// Ordinary-least-squares line fit y = intercept + slope * x.
struct OlsFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination in [0,1]; 0 for degenerate inputs.
  double r2 = 0.0;
};

/// Arithmetic mean; 0 for empty input.
double mean(std::span<const double> xs);

/// Population variance; 0 for fewer than 2 elements.
double variance(std::span<const double> xs);

/// Population standard deviation; 0 for fewer than 2 elements.
double stddev(std::span<const double> xs);

/// Full summary in one pass; zeroed Summary for empty input.
Summary summarize(std::span<const double> xs);

/// Median (average of middle two for even sizes); 0 for empty input.
double median(std::span<const double> xs);

/// Linear-interpolation quantile, q in [0,1]; 0 for empty input.
double quantile(std::span<const double> xs, double q);

/// Median absolute deviation (unscaled); 0 for empty input.
double mad(std::span<const double> xs);

/// Consistency constant that makes MAD estimate sigma for normal data.
inline constexpr double kMadToSigma = 1.4826022185056018;

/// Robust z-score of x against the sample: (x - median) / (1.4826 * MAD).
/// Falls back to the classic z-score when MAD is zero; 0 when stddev is
/// also zero (constant sample).
double robustZ(double x, std::span<const double> sample);

/// robustZ(x, sample), bit for bit, given the same values in ascending
/// order as `sorted`: the median and the MAD are read off order
/// statistics in O(log n) instead of selected in O(n). `sample` keeps its
/// own order for the classic-z fallback, whose sums are order-sensitive.
double robustZSorted(double x, std::span<const double> sorted,
                     std::span<const double> sample);

/// Classic z-score; 0 when the sample standard deviation is zero.
double zScore(double x, std::span<const double> sample);

/// Robust z of `x` against a *reference* sample that does not contain x
/// (leave-one-out scoring). Falls back MAD -> stddev -> relative deviation
/// (so a deviation from an exactly constant reference still scores large
/// instead of being diluted by itself, as happens with in-sample z).
double referenceZ(double x, std::span<const double> reference);

/// Leave-one-out robust z for every element: out[i] equals
/// referenceZ(xs[i], xs with position i removed), bit for bit. Computed in
/// O(n log n) total via one shared sort (the naive loop is O(n^2 log n)
/// and dominates whole-trace analysis at 10k+ ranks); elements whose
/// reference degenerates to MAD == 0 take an exact per-element fallback.
std::vector<double> leaveOneOutZ(std::span<const double> xs);

/// OLS fit of y against x. Requires xs.size() == ys.size(); returns a
/// zeroed fit for fewer than 2 points or zero x-variance.
OlsFit olsFit(std::span<const double> xs, std::span<const double> ys);

/// OLS fit of ys against their indices 0..n-1.
OlsFit olsTrend(std::span<const double> ys);

/// Pearson correlation coefficient; 0 for degenerate inputs.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Spearman rank correlation (average ranks for ties); 0 for degenerate
/// inputs.
double spearman(std::span<const double> xs, std::span<const double> ys);

/// Load-imbalance factor lambda = max/mean - 1; 0 for empty input or zero
/// mean. lambda = 0 means perfectly balanced.
double imbalanceFactor(std::span<const double> xs);

/// Fractional ranks (0-based, ties averaged) of the sample.
std::vector<double> ranks(std::span<const double> xs);

/// Equal-width histogram with `bins` buckets spanning [min, max]. Values
/// equal to max land in the last bucket. Empty input yields all-zero counts.
std::vector<std::size_t> histogram(std::span<const double> xs, std::size_t bins);

}  // namespace perfvar::stats

#endif  // PERFVAR_UTIL_STATS_HPP
