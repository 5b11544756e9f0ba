#ifndef PERFVAR_VIS_COLOR_HPP
#define PERFVAR_VIS_COLOR_HPP

/// \file color.hpp
/// Colors and color maps for the performance visualizations.
///
/// The paper encodes SOS-times "with a color-coded scale. Blue - cold -
/// colors indicate short durations, whereas red - hot - colors indicate
/// long durations" (Section VI). ColorMap::coldHot reproduces that scale
/// and is the only map the renderers use.

#include <cstdint>
#include <string>
#include <vector>

namespace perfvar::vis {

/// 8-bit sRGB color.
struct Rgb {
  std::uint8_t r = 0;
  std::uint8_t g = 0;
  std::uint8_t b = 0;

  bool operator==(const Rgb&) const = default;

  /// CSS hex string "#rrggbb".
  std::string hex() const;

  /// Linear interpolation between two colors, t in [0,1].
  static Rgb lerp(Rgb a, Rgb b, double t);

  /// Relative luminance (BT.709, gamma-ignored approximation in [0,1]).
  double luminance() const;
};

/// A one-dimensional color scale over [0,1], defined by anchor colors at
/// equidistant positions with linear interpolation in between.
class ColorMap {
public:
  explicit ColorMap(std::vector<Rgb> anchors);

  /// Color at t; t is clamped to [0,1]. NaN maps to light gray (#dcdcdc).
  Rgb at(double t) const;

  /// The paper's cold/hot scale: blue -> cyan -> green -> yellow -> red.
  static ColorMap coldHot();

private:
  std::vector<Rgb> anchors_;
};

/// Color of the explicit "no data" bands (quarantined ranks of a
/// salvaged trace) in the timeline renderer.
inline constexpr Rgb kNoDataColor{210, 210, 214};

/// Maps raw values to [0,1] for a ColorMap: linear or robust-quantile
/// normalization (the latter keeps one extreme outlier from flattening
/// the rest of the scale - useful for heatmaps with a single hotspot).
class ValueScale {
public:
  /// Linear scale over [lo, hi]; degenerate ranges map everything to 0.5.
  static ValueScale linear(double lo, double hi);

  /// Linear scale over the finite min/max of `values`.
  static ValueScale fromData(const std::vector<double>& values);

  /// Scale spanning the [qLow, qHigh] quantiles of `values`; values
  /// outside are clamped to the ends of the color ramp.
  static ValueScale robust(const std::vector<double>& values,
                           double qLow = 0.02, double qHigh = 0.98);

  /// Normalized position of `v` in [0,1]; NaN passes through as NaN.
  double normalize(double v) const;

  double low() const { return lo_; }
  double high() const { return hi_; }

private:
  ValueScale(double lo, double hi) : lo_(lo), hi_(hi) {}
  double lo_;
  double hi_;
};

}  // namespace perfvar::vis

#endif  // PERFVAR_VIS_COLOR_HPP
