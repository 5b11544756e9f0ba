#include "util/format.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <system_error>

#include "util/error.hpp"

namespace perfvar::fmt {

void appendGeneral(std::string& out, double v, int precision) {
  // Sign, 40 digits, point and "e-308".
  char buf[64];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, v, std::chars_format::general, precision);
  PERFVAR_REQUIRE(r.ec == std::errc{}, "appendGeneral: precision above 40");
  out.append(buf, r.ptr);
}

void appendFixed(std::string& out, double v, int decimals) {
  // The widest double has 309 integer digits; add the sign, the point and
  // 64 decimals.
  char buf[384];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, v, std::chars_format::fixed, decimals);
  PERFVAR_REQUIRE(r.ec == std::errc{}, "appendFixed: more than 64 decimals");
  out.append(buf, r.ptr);
}

std::string fixed(double v, int decimals) {
  std::string out;
  appendFixed(out, v, decimals);
  return out;
}

std::string seconds(double s) {
  const double a = std::abs(s);
  if (a < 1e-6) {
    return fixed(s * 1e9, 1) + " ns";
  }
  if (a < 1e-3) {
    return fixed(s * 1e6, 2) + " us";
  }
  if (a < 1.0) {
    return fixed(s * 1e3, 2) + " ms";
  }
  return fixed(s, 3) + " s";
}

std::string bytes(std::uint64_t n) {
  const double d = static_cast<double>(n);
  if (n < (1ULL << 10)) {
    return std::to_string(n) + " B";
  }
  if (n < (1ULL << 20)) {
    return fixed(d / 1024.0, 1) + " KiB";
  }
  if (n < (1ULL << 30)) {
    return fixed(d / (1024.0 * 1024.0), 1) + " MiB";
  }
  return fixed(d / (1024.0 * 1024.0 * 1024.0), 2) + " GiB";
}

std::string percent(double ratio) {
  return fixed(ratio * 100.0, 1) + "%";
}

std::string join(std::span<const std::string> parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

std::string pad(const std::string& s, int width) {
  const auto w = static_cast<std::size_t>(std::abs(width));
  if (s.size() >= w) {
    return s;
  }
  const std::string fill(w - s.size(), ' ');
  return width < 0 ? fill + s : s + fill;
}

std::string table(const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) {
    return {};
  }
  std::size_t cols = 0;
  for (const auto& r : rows) {
    cols = std::max(cols, r.size());
  }
  std::vector<std::size_t> widths(cols, 0);
  for (const auto& r : rows) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      widths[c] = std::max(widths[c], r[c].size());
    }
  }
  std::string out;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t c = 0; c < rows[i].size(); ++c) {
      out += rows[i][c];
      out.append(widths[c] - rows[i][c].size(), ' ');
      if (c + 1 < rows[i].size()) {
        out += "  ";
      }
    }
    out += '\n';
    if (i == 0) {
      std::size_t total = 0;
      for (std::size_t c = 0; c < cols; ++c) {
        total += widths[c] + (c + 1 < cols ? 2 : 0);
      }
      out.append(total, '-');
      out += '\n';
    }
  }
  return out;
}

std::string sparkline(std::span<const double> values) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (values.empty()) {
    return {};
  }
  const auto [mnIt, mxIt] = std::minmax_element(values.begin(), values.end());
  const double mn = *mnIt;
  const double range = *mxIt - mn;
  std::string out;
  for (const double v : values) {
    int level = 0;
    if (range > 0.0) {
      level = static_cast<int>((v - mn) / range * 7.999);
      level = std::clamp(level, 0, 7);
    }
    out += kBlocks[level];
  }
  return out;
}

bool parseSize(const std::string& value, std::size_t& out) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  try {
    out = static_cast<std::size_t>(std::stoull(value));
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

bool parseDouble(const std::string& value, double& out) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size() || !std::isfinite(v)) {
      return false;
    }
    out = v;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace perfvar::fmt
