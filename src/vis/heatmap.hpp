#ifndef PERFVAR_VIS_HEATMAP_HPP
#define PERFVAR_VIS_HEATMAP_HPP

/// \file heatmap.hpp
/// Heatmap rendering of [process][column] value matrices.
///
/// This is the paper's core visualization (Figures 4(b), 5(b), 5(c),
/// 6(b), 6(c)): one row per process, one column per iteration (or time
/// bin), cell color encoding the SOS-time or a counter value on the
/// cold/hot scale.

#include <string>
#include <vector>

#include "vis/color.hpp"
#include "vis/svg.hpp"

namespace perfvar::vis {

/// Options of the heatmap renderers. Cells use ColorMap::coldHot.
struct HeatmapOptions {
  std::string title;
  std::vector<std::string> rowLabels;  ///< optional, one per row
  /// Use robust (quantile) normalization instead of min/max.
  bool robustScale = true;
  /// Explicit scale overriding the data-derived one (if lo < hi).
  double scaleLow = 0.0;
  double scaleHigh = 0.0;
  /// Draw a color legend bar.
  bool legend = true;
  /// Label every k-th row (0 = automatic).
  std::size_t rowLabelStride = 0;
};

/// A value matrix: rows = processes, columns = iterations / time bins.
/// Rows may have different lengths; missing cells render in the map's
/// NaN color. NaN cells likewise.
using Matrix = std::vector<std::vector<double>>;

/// Render the heatmap as an SVG document.
SvgDocument renderHeatmapSvg(const Matrix& values,
                             const HeatmapOptions& options);

/// Render the heatmap as terminal text: one shade character per matrix
/// cell (' ' for NaN), `maxColumns` wide - wider
/// matrices are downsampled by averaging.
std::string renderHeatmapAscii(const Matrix& values,
                               const HeatmapOptions& options,
                               std::size_t maxColumns = 100);

/// Compute the value scale a render would use (exposed for legends and
/// for testing).
ValueScale heatmapScale(const Matrix& values, const HeatmapOptions& options);

/// Topology view: lay one value per rank out on the application's 2-D
/// process grid (rank = y * gridX + x) and render it as an SVG heatmap,
/// with per-cell rank labels when the grid is small enough (<= 16x16).
/// This shows the *spatial* shape of a hotspot (e.g. the cloud footprint
/// of the COSMO-SPECS case study). Requires values.size() == gridX*gridY.
SvgDocument renderTopologySvg(const std::vector<double>& valuePerRank,
                              std::size_t gridX, std::size_t gridY,
                              const HeatmapOptions& options);

}  // namespace perfvar::vis

#endif  // PERFVAR_VIS_HEATMAP_HPP
