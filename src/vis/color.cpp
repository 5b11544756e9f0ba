#include "vis/color.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace perfvar::vis {

std::string Rgb::hex() const {
  static const char* kDigits = "0123456789abcdef";
  std::string s = "#......";
  s[1] = kDigits[r >> 4];
  s[2] = kDigits[r & 0xF];
  s[3] = kDigits[g >> 4];
  s[4] = kDigits[g & 0xF];
  s[5] = kDigits[b >> 4];
  s[6] = kDigits[b & 0xF];
  return s;
}

Rgb Rgb::lerp(Rgb a, Rgb b, double t) {
  t = std::clamp(t, 0.0, 1.0);
  const auto mix = [t](std::uint8_t x, std::uint8_t y) {
    return static_cast<std::uint8_t>(
        std::lround(static_cast<double>(x) * (1.0 - t) +
                    static_cast<double>(y) * t));
  };
  return Rgb{mix(a.r, b.r), mix(a.g, b.g), mix(a.b, b.b)};
}

double Rgb::luminance() const {
  return (0.2126 * r + 0.7152 * g + 0.0722 * b) / 255.0;
}

ColorMap::ColorMap(std::vector<Rgb> anchors) : anchors_(std::move(anchors)) {
  PERFVAR_REQUIRE(anchors_.size() >= 2, "color map needs at least 2 anchors");
}

Rgb ColorMap::at(double t) const {
  if (std::isnan(t)) {
    return Rgb{220, 220, 220};
  }
  t = std::clamp(t, 0.0, 1.0);
  const double pos = t * static_cast<double>(anchors_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, anchors_.size() - 1);
  return Rgb::lerp(anchors_[lo], anchors_[hi], pos - static_cast<double>(lo));
}

ColorMap ColorMap::coldHot() {
  return ColorMap({Rgb{13, 39, 166},    // deep blue (cold)
                   Rgb{0, 160, 233},    // cyan
                   Rgb{58, 181, 74},    // green
                   Rgb{255, 222, 23},   // yellow
                   Rgb{243, 112, 33},   // orange
                   Rgb{215, 25, 28}});  // red (hot)
}

ValueScale ValueScale::linear(double lo, double hi) {
  return ValueScale(lo, hi);
}

namespace {

std::vector<double> finiteValues(const std::vector<double>& values) {
  std::vector<double> out;
  out.reserve(values.size());
  for (const double v : values) {
    if (std::isfinite(v)) {
      out.push_back(v);
    }
  }
  return out;
}

}  // namespace

ValueScale ValueScale::fromData(const std::vector<double>& values) {
  const auto finite = finiteValues(values);
  if (finite.empty()) {
    return ValueScale(0.0, 0.0);
  }
  const auto [mn, mx] = std::minmax_element(finite.begin(), finite.end());
  return ValueScale(*mn, *mx);
}

ValueScale ValueScale::robust(const std::vector<double>& values, double qLow,
                              double qHigh) {
  PERFVAR_REQUIRE(qLow < qHigh, "robust scale: qLow must be below qHigh");
  const auto finite = finiteValues(values);
  if (finite.empty()) {
    return ValueScale(0.0, 0.0);
  }
  return ValueScale(stats::quantile(finite, qLow),
                    stats::quantile(finite, qHigh));
}

double ValueScale::normalize(double v) const {
  if (std::isnan(v)) {
    return v;
  }
  if (hi_ <= lo_) {
    return 0.5;
  }
  return std::clamp((v - lo_) / (hi_ - lo_), 0.0, 1.0);
}

}  // namespace perfvar::vis
