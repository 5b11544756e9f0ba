#ifndef PERFVAR_VIS_SVG_HPP
#define PERFVAR_VIS_SVG_HPP

/// \file svg.hpp
/// Minimal SVG document builder for vector renders of timelines,
/// heatmaps and legends.

#include <string>

#include "vis/color.hpp"

namespace perfvar::vis {

/// Accumulates SVG elements and serializes a standalone document. Every
/// number is written with two fixed decimals, exactly as printf("%.2f")
/// prints it.
class SvgDocument {
public:
  SvgDocument(double width, double height);

  double width() const { return width_; }
  double height() const { return height_; }

  void rect(double x, double y, double w, double h, Rgb fill);
  void rectOutline(double x, double y, double w, double h, Rgb strokeColor,
                   double strokeWidth = 1.0);
  void line(double x1, double y1, double x2, double y2, Rgb strokeColor,
            double strokeWidth = 1.0);

  /// Anchor: "start", "middle" or "end".
  void text(double x, double y, const std::string& s, Rgb fill,
            double fontSize = 12.0, const std::string& anchor = "start");

  /// Raw element passthrough for anything not covered above.
  void raw(const std::string& element);

  std::string finalize() const;

  void save(const std::string& path) const;

  /// XML-escape a string for use in text content or attributes.
  static std::string escape(const std::string& s);

private:
  double width_;
  double height_;
  std::string body_;
};

}  // namespace perfvar::vis

#endif  // PERFVAR_VIS_SVG_HPP
