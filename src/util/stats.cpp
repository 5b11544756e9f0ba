#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace perfvar::stats {

namespace {

/// Per-thread scratch for the selection kernels: one allocation amortized
/// across every median/MAD/robust-z call on the thread instead of a fresh
/// vector per call. Never escapes this translation unit.
std::vector<double>& selectionScratch() {
  thread_local std::vector<double> scratch;
  return scratch;
}

/// Median by nth_element; permutes `v`. Selects the same elements a full
/// sort would: for odd n the value at sorted index n/2, for even n the
/// max of the lower half paired with the n/2-th order statistic, combined
/// in the exact expression order of the sort-based implementation — so
/// the result is bit-identical to the median of a fully sorted copy.
double medianInPlace(std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  const std::size_t n = v.size();
  const std::size_t mid = n / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  if (n % 2 == 1) {
    return v[mid];
  }
  const double lower =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + v[mid]);
}

/// Median of a sorted array `v` with the element at `removed` taken out,
/// without materializing the reduced array: element t of the reduced
/// array is v[t] when t < removed and v[t+1] otherwise.
double medianOfSortedMinusOne(const std::vector<double>& v,
                              std::size_t removed) {
  const std::size_t m = v.size() - 1;
  if (m == 0) {
    return 0.0;
  }
  if (m % 2 == 1) {
    const std::size_t h = m / 2;
    return h < removed ? v[h] : v[h + 1];
  }
  const std::size_t a = m / 2 - 1;
  const std::size_t b = m / 2;
  const double lower = a < removed ? v[a] : v[a + 1];
  const double upper = b < removed ? v[b] : v[b + 1];
  return 0.5 * (lower + upper);
}

}  // namespace

double mean(std::span<const double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) {
    return 0.0;
  }
  const double m = mean(xs);
  double acc = 0.0;
  for (const double x : xs) {
    const double d = x - m;
    acc += d * d;
  }
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  return std::sqrt(variance(xs));
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  if (xs.empty()) {
    return s;
  }
  s.count = xs.size();
  s.min = xs[0];
  s.max = xs[0];
  double sum = 0.0;
  double sumSq = 0.0;
  for (const double x : xs) {
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
    sum += x;
    sumSq += x * x;
  }
  s.sum = sum;
  s.mean = sum / static_cast<double>(s.count);
  const double var =
      std::max(0.0, sumSq / static_cast<double>(s.count) - s.mean * s.mean);
  s.stddev = std::sqrt(var);
  return s;
}

double median(std::span<const double> xs) {
  auto& v = selectionScratch();
  v.assign(xs.begin(), xs.end());
  return medianInPlace(v);
}

double quantile(std::span<const double> xs, double q) {
  PERFVAR_REQUIRE(q >= 0.0 && q <= 1.0, "quantile: q must be in [0,1]");
  if (xs.empty()) {
    return 0.0;
  }
  auto& v = selectionScratch();
  v.assign(xs.begin(), xs.end());
  if (v.size() == 1) {
    return v[0];
  }
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double vlo = v[lo];
  // The sorted value at lo+1 is the minimum of everything nth_element
  // left above the pivot; hi == lo only at q == 1.0.
  const double vhi =
      hi == lo
          ? vlo
          : *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo + 1),
                              v.end());
  return vlo * (1.0 - frac) + vhi * frac;
}

double mad(std::span<const double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  // One scratch copy serves both selections: the median permutes it but
  // keeps the multiset, then it is transformed in place to |x - med|.
  auto& v = selectionScratch();
  v.assign(xs.begin(), xs.end());
  const double med = medianInPlace(v);
  for (double& e : v) {
    e = std::abs(e - med);
  }
  return medianInPlace(v);
}

double robustZ(double x, std::span<const double> sample) {
  if (sample.empty()) {
    return 0.0;  // median 0, MAD 0, stddev 0 -> the zScore fallback is 0
  }
  auto& v = selectionScratch();
  v.assign(sample.begin(), sample.end());
  const double med = medianInPlace(v);
  for (double& e : v) {
    e = std::abs(e - med);
  }
  const double scale = kMadToSigma * medianInPlace(v);
  if (scale > 0.0) {
    return (x - med) / scale;
  }
  return zScore(x, sample);
}

double robustZSorted(double x, std::span<const double> sorted,
                     std::span<const double> sample) {
  const std::size_t n = sorted.size();
  if (n == 0) {
    return 0.0;
  }
  // Same expressions as medianInPlace(): for even n the max of the lower
  // half is sorted[mid - 1].
  const std::size_t mid = n / 2;
  const double med =
      n % 2 == 1 ? sorted[mid] : 0.5 * (sorted[mid - 1] + sorted[mid]);
  // |s - med| ascends leftwards from `split` (values below the median)
  // and rightwards from it (the rest): the deviations are two sorted runs.
  const std::size_t split = static_cast<std::size_t>(
      std::lower_bound(sorted.begin(), sorted.end(), med) - sorted.begin());
  const auto left = [&](std::size_t t) {
    return std::abs(sorted[split - 1 - t] - med);
  };
  const auto right = [&](std::size_t t) {
    return std::abs(sorted[split + t] - med);
  };
  // k-th smallest (0-based) deviation: binary search for how many of the
  // k + 1 smallest come from the left run.
  const auto kth = [&](std::size_t k) {
    std::size_t lo = k + 1 > n - split ? k + 1 - (n - split) : 0;
    std::size_t hi = std::min(k + 1, split);
    while (lo < hi) {
      const std::size_t i = lo + (hi - lo) / 2;
      if (right(k - i) > left(i)) {
        lo = i + 1;
      } else {
        hi = i;
      }
    }
    const std::size_t j = k + 1 - lo;
    if (lo == 0) {
      return right(j - 1);
    }
    return j == 0 ? left(lo - 1) : std::max(left(lo - 1), right(j - 1));
  };
  const double mad = n % 2 == 1 ? kth(mid) : 0.5 * (kth(mid - 1) + kth(mid));
  const double scale = kMadToSigma * mad;
  if (scale > 0.0) {
    return (x - med) / scale;
  }
  return zScore(x, sample);
}

double zScore(double x, std::span<const double> sample) {
  const double sd = stddev(sample);
  if (sd <= 0.0) {
    return 0.0;
  }
  return (x - mean(sample)) / sd;
}

double referenceZ(double x, std::span<const double> reference) {
  if (reference.empty()) {
    return 0.0;
  }
  auto& v = selectionScratch();
  v.assign(reference.begin(), reference.end());
  const double med = medianInPlace(v);
  for (double& e : v) {
    e = std::abs(e - med);
  }
  double scale = kMadToSigma * medianInPlace(v);
  if (scale <= 0.0) {
    scale = stddev(reference);
  }
  if (scale <= 0.0) {
    if (x == med) {
      return 0.0;
    }
    // Constant reference: any deviation is significant. Score relative to
    // 0.1% of the reference level (or an absolute epsilon near zero).
    const double base = std::max(1e-3 * std::abs(med), 1e-12);
    return (x - med) / base;
  }
  return (x - med) / scale;
}

std::vector<double> leaveOneOutZ(std::span<const double> xs) {
  const std::size_t n = xs.size();
  std::vector<double> out(n, 0.0);
  if (n <= 1) {
    return out;  // referenceZ against an empty reference is 0
  }

  // Sort once; every leave-one-out reference is this order with one
  // position removed. Ties may be assigned either way: removing any
  // instance of an equal value leaves the same multiset.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return xs[a] < xs[b] || (xs[a] == xs[b] && a < b);
  });
  std::vector<double> a(n);
  for (std::size_t t = 0; t < n; ++t) {
    a[t] = xs[order[t]];
  }
  if (a.front() == a.back()) {
    return out;  // constant sample: x equals the reference median -> 0
  }

  const std::size_t m = n - 1;

  // Exact per-element fallback for degenerate references (MAD == 0):
  // rebuild the reference in original index order — the stddev inside
  // referenceZ sums in that order — and delegate to the oracle.
  const auto fallback = [&](std::size_t i) {
    std::vector<double> others;
    others.reserve(m);
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) {
        others.push_back(xs[j]);
      }
    }
    return referenceZ(xs[i], others);
  };

  // The leave-one-out median takes at most three distinct values,
  // constant over contiguous ranges of the removed sorted position.
  struct Region {
    std::size_t first;
    std::size_t last;
    double med;
  };
  Region regions[3];
  std::size_t numRegions = 0;
  if (m % 2 == 1) {
    const std::size_t h = m / 2;
    regions[numRegions++] = {0, h, a[h + 1]};
    regions[numRegions++] = {h + 1, n - 1, a[h]};
  } else {
    const std::size_t lo = m / 2 - 1;
    const std::size_t hi = m / 2;
    regions[numRegions++] = {0, lo, 0.5 * (a[lo + 1] + a[hi + 1])};
    regions[numRegions++] = {hi, hi, 0.5 * (a[lo] + a[hi + 1])};
    regions[numRegions++] = {hi + 1, n - 1, 0.5 * (a[lo] + a[hi])};
  }

  // Scratch shared across regions: devs holds |a[t] - med| sorted, and
  // devRank[t] is the position of a[t]'s deviation inside devs.
  std::vector<double> devs(n);
  std::vector<std::size_t> devRank(n);
  for (std::size_t r = 0; r < numRegions; ++r) {
    const double med = regions[r].med;
    // |a[t] - med| is two sorted runs over sorted `a`: decreasing up to
    // the split (values <= med, walked backwards) and increasing after
    // it. A linear two-run merge sorts the deviations branchlessly
    // relative to a comparison sort and yields each element's rank.
    const std::size_t split = static_cast<std::size_t>(
        std::upper_bound(a.begin(), a.end(), med) - a.begin());
    std::size_t left = split;   // next left candidate is a[left - 1]
    std::size_t right = split;  // next right candidate is a[right]
    for (std::size_t t = 0; t < n; ++t) {
      const bool takeLeft =
          left != 0 && (right == n || std::abs(a[left - 1] - med) <=
                                          std::abs(a[right] - med));
      if (takeLeft) {
        --left;
        devs[t] = std::abs(a[left] - med);
        devRank[left] = t;
      } else {
        devs[t] = std::abs(a[right] - med);
        devRank[right] = t;
        ++right;
      }
    }
    for (std::size_t k = regions[r].first; k <= regions[r].last; ++k) {
      const std::size_t i = order[k];
      const double scale =
          kMadToSigma * medianOfSortedMinusOne(devs, devRank[k]);
      if (scale > 0.0) {
        out[i] = (xs[i] - med) / scale;
      } else {
        out[i] = fallback(i);
      }
    }
  }
  return out;
}

OlsFit olsFit(std::span<const double> xs, std::span<const double> ys) {
  PERFVAR_REQUIRE(xs.size() == ys.size(), "olsFit: size mismatch");
  OlsFit fit;
  const std::size_t n = xs.size();
  if (n < 2) {
    return fit;
  }
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0) {
    return fit;
  }
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r2 = (syy > 0.0) ? (sxy * sxy) / (sxx * syy) : 0.0;
  return fit;
}

OlsFit olsTrend(std::span<const double> ys) {
  std::vector<double> xs(ys.size());
  std::iota(xs.begin(), xs.end(), 0.0);
  return olsFit(xs, ys);
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  PERFVAR_REQUIRE(xs.size() == ys.size(), "pearson: size mismatch");
  const std::size_t n = xs.size();
  if (n < 2) {
    return 0.0;
  }
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) {
    return 0.0;
  }
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> ranks(std::span<const double> xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> out(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) {
      ++j;
    }
    // Average rank across the tie group [i, j].
    const double avgRank = 0.5 * (static_cast<double>(i) + static_cast<double>(j));
    for (std::size_t k = i; k <= j; ++k) {
      out[order[k]] = avgRank;
    }
    i = j + 1;
  }
  return out;
}

double spearman(std::span<const double> xs, std::span<const double> ys) {
  PERFVAR_REQUIRE(xs.size() == ys.size(), "spearman: size mismatch");
  if (xs.size() < 2) {
    return 0.0;
  }
  const auto rx = ranks(xs);
  const auto ry = ranks(ys);
  return pearson(rx, ry);
}

double imbalanceFactor(std::span<const double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  const double m = mean(xs);
  if (m <= 0.0) {
    return 0.0;
  }
  const double mx = *std::max_element(xs.begin(), xs.end());
  return mx / m - 1.0;
}

double imbalanceLoss(std::span<const double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  const double mx = *std::max_element(xs.begin(), xs.end());
  if (mx <= 0.0) {
    return 0.0;
  }
  return (mx - mean(xs)) / mx;
}

std::vector<std::size_t> histogram(std::span<const double> xs, std::size_t bins) {
  PERFVAR_REQUIRE(bins > 0, "histogram: bins must be positive");
  std::vector<std::size_t> counts(bins, 0);
  if (xs.empty()) {
    return counts;
  }
  const auto [mnIt, mxIt] = std::minmax_element(xs.begin(), xs.end());
  const double mn = *mnIt;
  const double mx = *mxIt;
  const double width = mx - mn;
  for (const double x : xs) {
    std::size_t b = 0;
    if (width > 0.0) {
      b = static_cast<std::size_t>((x - mn) / width * static_cast<double>(bins));
      b = std::min(b, bins - 1);
    }
    ++counts[b];
  }
  return counts;
}

}  // namespace perfvar::stats
