#include "vis/svg.hpp"

#include <bit>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <string_view>

#include "util/error.hpp"

namespace perfvar::vis {

namespace {

void put(std::string& out, std::string_view s) { out += s; }

void put(std::string& out, char c) { out += c; }

/// Two fixed decimals, as printf("%.2f") prints them: the exact binary
/// value rounded to nearest, ties to even, with the sign of the value
/// (so -0.0 prints "-0.00").
///
/// A finite v with |v| < 2^53 is m * 2^-s for an integer m < 2^53 and
/// 0 <= s <= 1074, so 100 v is (100 m) / 2^s with 100 m < 2^60. One
/// 64-bit shift gives its integer part, the shifted-out bits are the
/// exact remainder, and comparing them with 2^(s-1) rounds half to even;
/// for s >= 61 the remainder 100 m is below the half and 100 v rounds to
/// 0. No step rounds, so the digits are exact. nan, inf and |v| >= 2^53
/// take std::to_chars, which the standard specifies to print what printf
/// prints (nan/inf spelled alike); its buffer holds the widest double:
/// 309 integer digits, sign, point, 2 decimals.
void put(std::string& out, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const auto biased = static_cast<unsigned>(bits >> 52) & 0x7ffU;
  if (biased >= 1023 + 53) {
    char buf[320];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 2);
    out.append(buf, r.ptr);
    return;
  }
  constexpr std::uint64_t kHidden = std::uint64_t{1} << 52;
  const std::uint64_t fraction = bits & (kHidden - 1);
  // Subnormals (biased 0) have no hidden bit and the exponent of biased 1.
  const std::uint64_t mantissa = biased == 0 ? fraction : fraction | kHidden;
  const std::uint64_t scaled = mantissa * 100;
  const unsigned shift = 1075 - (biased == 0 ? 1 : biased);
  std::uint64_t cents = shift == 0 ? scaled : 0;
  if (shift > 0 && shift < 64) {
    cents = scaled >> shift;
    const std::uint64_t rest = scaled & ((std::uint64_t{1} << shift) - 1);
    const std::uint64_t half = std::uint64_t{1} << (shift - 1);
    if (rest > half || (rest == half && (cents & 1) != 0)) {
      ++cents;
    }
  }
  // At most 16 integer digits (|v| < 2^53 < 10^16), the point, two
  // decimals and the sign.
  char buf[24];
  char* const end = buf + sizeof buf;
  char* p = end;
  const auto decimals = static_cast<unsigned>(cents % 100);
  *--p = static_cast<char>('0' + decimals % 10);
  *--p = static_cast<char>('0' + decimals / 10);
  *--p = '.';
  std::uint64_t whole = cents / 100;
  do {
    *--p = static_cast<char>('0' + whole % 10);
    whole /= 10;
  } while (whole != 0);
  if ((bits >> 63) != 0) {
    *--p = '-';
  }
  out.append(p, end);
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
