#include "vis/svg.hpp"

#include <charconv>
#include <fstream>
#include <string_view>

#include "util/error.hpp"

namespace perfvar::vis {

namespace {

void put(std::string& out, std::string_view s) { out += s; }

void put(std::string& out, char c) { out += c; }

/// Two fixed decimals via std::to_chars, which the standard specifies to
/// print what printf("%.2f") prints (nan/inf spelled alike). The buffer
/// holds the widest double: 309 integer digits, sign, point, 2 decimals.
void put(std::string& out, double v) {
  char buf[320];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 2);
  out.append(buf, r.ptr);
}

/// "#rrggbb" is seven characters, inside std::string's small buffer, so
/// hex() does not allocate.
void put(std::string& out, Rgb c) { out += c.hex(); }

template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (put(out, parts), ...);
}

void appendEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
}

}  // namespace

SvgDocument::SvgDocument(double width, double height)
    : width_(width), height_(height) {
  PERFVAR_REQUIRE(width > 0 && height > 0, "SVG dimensions must be positive");
}

std::string SvgDocument::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  appendEscaped(out, s);
  return out;
}

void SvgDocument::rect(double x, double y, double w, double h, Rgb fill) {
  append(body_, "<rect x=\"", x, "\" y=\"", y, "\" width=\"", w,
         "\" height=\"", h, "\" fill=\"", fill, "\"/>\n");
}

void SvgDocument::rectOutline(double x, double y, double w, double h,
                              Rgb strokeColor, double strokeWidth) {
  append(body_, "<rect x=\"", x, "\" y=\"", y, "\" width=\"", w,
         "\" height=\"", h, "\" fill=\"none\" stroke=\"", strokeColor,
         "\" stroke-width=\"", strokeWidth, "\"/>\n");
}

void SvgDocument::line(double x1, double y1, double x2, double y2,
                       Rgb strokeColor, double strokeWidth) {
  append(body_, "<line x1=\"", x1, "\" y1=\"", y1, "\" x2=\"", x2,
         "\" y2=\"", y2, "\" stroke=\"", strokeColor, "\" stroke-width=\"",
         strokeWidth, "\"/>\n");
}

void SvgDocument::text(double x, double y, const std::string& s, Rgb fill,
                       double fontSize, const std::string& anchor) {
  append(body_, "<text x=\"", x, "\" y=\"", y, "\" fill=\"", fill,
         "\" font-size=\"", fontSize,
         "\" font-family=\"monospace\" text-anchor=\"", anchor, "\">");
  appendEscaped(body_, s);
  put(body_, "</text>\n");
}

void SvgDocument::raw(const std::string& element) {
  append(body_, element, '\n');
}

std::string SvgDocument::finalize() const {
  std::string head;
  append(head, "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n",
         "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"", width_,
         "\" height=\"", height_, "\" viewBox=\"0 0 ", width_, ' ', height_,
         "\">\n");
  constexpr std::string_view kTail = "</svg>\n";
  std::string out;
  out.reserve(head.size() + body_.size() + kTail.size());
  append(out, head, body_, kTail);
  return out;
}

void SvgDocument::save(const std::string& path) const {
  std::ofstream out(path);
  PERFVAR_REQUIRE(out.good(), "cannot open '" + path + "' for writing");
  out << finalize();
  PERFVAR_REQUIRE(out.good(), "write to '" + path + "' failed");
}

}  // namespace perfvar::vis
