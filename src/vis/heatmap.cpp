#include "vis/heatmap.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/format.hpp"

namespace perfvar::vis {

namespace {

std::size_t maxColumnsOf(const Matrix& values) {
  std::size_t n = 0;
  for (const auto& row : values) {
    n = std::max(n, row.size());
  }
  return n;
}

std::vector<double> flatten(const Matrix& values) {
  std::vector<double> flat;
  for (const auto& row : values) {
    for (const double v : row) {
      flat.push_back(v);
    }
  }
  return flat;
}

/// Downsample a row to `columns` cells by averaging finite values.
std::vector<double> resampleRow(const std::vector<double>& row,
                                std::size_t columns, std::size_t fullWidth) {
  std::vector<double> out(columns, std::numeric_limits<double>::quiet_NaN());
  if (fullWidth == 0) {
    return out;
  }
  for (std::size_t c = 0; c < columns; ++c) {
    const std::size_t lo = c * fullWidth / columns;
    std::size_t hi = (c + 1) * fullWidth / columns;
    hi = std::max(hi, lo + 1);
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t i = lo; i < hi && i < row.size(); ++i) {
      if (std::isfinite(row[i])) {
        sum += row[i];
        ++count;
      }
    }
    if (count > 0) {
      out[c] = sum / static_cast<double>(count);
    }
  }
  return out;
}

bool isNoDataRow(const HeatmapOptions& options, std::size_t row) {
  return std::find(options.noDataRows.begin(), options.noDataRows.end(),
                   row) != options.noDataRows.end();
}

std::size_t labelStride(std::size_t rows, std::size_t requested,
                        std::size_t maxLabels) {
  if (requested > 0) {
    return requested;
  }
  std::size_t stride = 1;
  while (rows / stride > maxLabels) {
    stride *= 2;
  }
  return stride;
}

Matrix rankGrid(const std::vector<double>& valuePerRank, std::size_t gridX,
                std::size_t gridY) {
  PERFVAR_REQUIRE(gridX >= 1 && gridY >= 1, "topology grid must be non-empty");
  PERFVAR_REQUIRE(valuePerRank.size() == gridX * gridY,
                  "value count must equal gridX * gridY");
  Matrix m(gridY, std::vector<double>(gridX, 0.0));
  for (std::size_t y = 0; y < gridY; ++y) {
    for (std::size_t x = 0; x < gridX; ++x) {
      m[y][x] = valuePerRank[y * gridX + x];
    }
  }
  return m;
}

}  // namespace

ValueScale heatmapScale(const Matrix& values, const HeatmapOptions& options) {
  if (options.scaleLow < options.scaleHigh) {
    return ValueScale::linear(options.scaleLow, options.scaleHigh);
  }
  const auto flat = flatten(values);
  return options.robustScale ? ValueScale::robust(flat)
                             : ValueScale::fromData(flat);
}

SvgDocument renderHeatmapSvg(const Matrix& values,
                             const HeatmapOptions& options) {
  PERFVAR_REQUIRE(!values.empty(), "heatmap needs at least one row");
  const std::size_t rows = values.size();
  const std::size_t cols = std::max<std::size_t>(1, maxColumnsOf(values));
  const ValueScale scale = heatmapScale(values, options);
  const ColorMap colors = ColorMap::coldHot();

  const double cellW = std::max<double>(2.0, 900.0 / static_cast<double>(cols));
  const double cellH = std::max<double>(2.0, 500.0 / static_cast<double>(rows));
  const double labelW = options.rowLabels.empty() ? 0.0 : 80.0;
  const double titleH = options.title.empty() ? 0.0 : 24.0;
  const double legendH = options.legend ? 40.0 : 0.0;
  const double plotW = cellW * static_cast<double>(cols);
  const double plotH = cellH * static_cast<double>(rows);

  SvgDocument svg(labelW + plotW + 10, titleH + plotH + legendH + 10);
  if (!options.title.empty()) {
    svg.text(labelW + 4, 16, options.title, Rgb{0, 0, 0}, 14.0);
  }
  const double x0 = labelW + 4;
  const double y0 = titleH + 4;
  for (std::size_t r = 0; r < rows; ++r) {
    if (isNoDataRow(options, r)) {
      svg.rect(x0, y0 + cellH * static_cast<double>(r),
               cellW * static_cast<double>(cols) + 0.3, cellH + 0.3,
               kNoDataColor);
      continue;
    }
    for (std::size_t c = 0; c < cols; ++c) {
      const double v = c < values[r].size()
                           ? values[r][c]
                           : std::numeric_limits<double>::quiet_NaN();
      svg.rect(x0 + cellW * static_cast<double>(c),
               y0 + cellH * static_cast<double>(r), cellW + 0.3, cellH + 0.3,
               colors.at(scale.normalize(v)));
    }
  }
  if (!options.rowLabels.empty()) {
    const std::size_t stride = labelStride(
        rows, options.rowLabelStride,
        static_cast<std::size_t>(std::max(1.0, plotH / 14.0)));
    for (std::size_t r = 0; r < rows; r += stride) {
      if (r < options.rowLabels.size()) {
        svg.text(labelW, y0 + cellH * (static_cast<double>(r) + 0.8),
                 options.rowLabels[r], Rgb{0, 0, 0}, 10.0, "end");
      }
    }
  }
  if (options.legend) {
    const double ly = y0 + plotH + 10;
    const double barW = std::min(plotW, 300.0);
    const int steps = 64;
    for (int i = 0; i < steps; ++i) {
      const double t = static_cast<double>(i) / (steps - 1);
      svg.rect(x0 + barW * t, ly, barW / steps + 0.5, 12, colors.at(t));
    }
    svg.rectOutline(x0, ly, barW, 12, Rgb{0, 0, 0});
    svg.text(x0, ly + 24, fmt::fixed(scale.low(), 3), Rgb{0, 0, 0}, 10.0);
    svg.text(x0 + barW, ly + 24, fmt::fixed(scale.high(), 3), Rgb{0, 0, 0},
             10.0, "end");
  }
  return svg;
}

SvgDocument renderTopologySvg(const std::vector<double>& valuePerRank,
                              std::size_t gridX, std::size_t gridY,
                              const HeatmapOptions& options) {
  const Matrix grid = rankGrid(valuePerRank, gridX, gridY);
  HeatmapOptions topo = options;
  topo.rowLabels.clear();
  SvgDocument svg = renderHeatmapSvg(grid, topo);
  if (gridX <= 16 && gridY <= 16) {
    // Overlay rank numbers; geometry mirrors renderHeatmapSvg's layout.
    const ValueScale scale = heatmapScale(grid, topo);
    const ColorMap colors = ColorMap::coldHot();
    const double cellW = std::max(2.0, 900.0 / static_cast<double>(gridX));
    const double cellH = std::max(2.0, 500.0 / static_cast<double>(gridY));
    const double titleH = topo.title.empty() ? 0.0 : 24.0;
    for (std::size_t y = 0; y < gridY; ++y) {
      for (std::size_t x = 0; x < gridX; ++x) {
        const Rgb bg = colors.at(scale.normalize(grid[y][x]));
        const Rgb fg = bg.luminance() > 0.55 ? Rgb{0, 0, 0}
                                             : Rgb{255, 255, 255};
        svg.text(4.0 + cellW * (static_cast<double>(x) + 0.5),
                 titleH + 4.0 + cellH * (static_cast<double>(y) + 0.6),
                 std::to_string(y * gridX + x), fg,
                 std::min(cellH * 0.35, 12.0), "middle");
      }
    }
  }
  return svg;
}

std::string renderHeatmapAscii(const Matrix& values,
                               const HeatmapOptions& options,
                               std::size_t maxColumns) {
  PERFVAR_REQUIRE(!values.empty(), "heatmap needs at least one row");
  const std::size_t fullWidth = maxColumnsOf(values);
  const std::size_t cols = std::min(maxColumns, std::max<std::size_t>(
                                                    1, fullWidth));
  const ValueScale scale = heatmapScale(values, options);
  static const char* kShades = " .:-=+*#%@";

  std::ostringstream os;
  if (!options.title.empty()) {
    os << options.title << '\n';
  }
  for (std::size_t r = 0; r < values.size(); ++r) {
    if (r < options.rowLabels.size()) {
      os << fmt::pad(options.rowLabels[r], -12) << ' ';
    }
    if (isNoDataRow(options, r)) {
      os << std::string(cols, 'x') << '\n';
      continue;
    }
    const auto row = resampleRow(values[r], cols, fullWidth);
    for (const double v : row) {
      const double t = scale.normalize(v);
      if (std::isnan(t)) {
        os << ' ';
      } else {
        const int idx = std::clamp(static_cast<int>(t * 9.999), 0, 9);
        os << kShades[idx];
      }
    }
    os << '\n';
  }
  if (options.legend) {
    os << "scale: " << fmt::fixed(scale.low(), 4) << " (cold) .. "
       << fmt::fixed(scale.high(), 4) << " (hot)\n";
  }
  return os.str();
}

}  // namespace perfvar::vis
