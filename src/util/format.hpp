#ifndef PERFVAR_UTIL_FORMAT_HPP
#define PERFVAR_UTIL_FORMAT_HPP

/// \file format.hpp
/// Small text-formatting and number-parsing helpers shared by reports,
/// dumps, benches and the command parsers.

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfvar::fmt {

/// Format seconds with an adaptive unit (ns/us/ms/s), e.g. "12.34 ms".
std::string seconds(double s);

/// Format a byte count with an adaptive unit (B/KiB/MiB/GiB).
std::string bytes(std::uint64_t n);

/// Format a ratio as a percentage with one decimal, e.g. "25.0%".
std::string percent(double ratio);

/// Fixed-point with the given number of decimals (at most 64):
/// printf("%.*f").
std::string fixed(double v, int decimals);

// Appending number writers: the report renderers build their output in
// one string with these instead of streaming numbers through an ostream.
// Each prints exactly what the named printf conversion prints (which is
// what an ostream in the "C" locale prints for the matching precision and
// floatfield): std::to_chars is specified to equal it, nan and inf
// spelled alike.

/// Append `v` as printf("%.<precision>g"): an ostream with that
/// precision and the default floatfield. Precision at most 40.
void appendGeneral(std::string& out, double v, int precision);

/// Append `v` as printf("%.<decimals>f"): an ostream with that precision
/// and std::ios::fixed. At most 64 decimals.
void appendFixed(std::string& out, double v, int decimals);

/// Append an integer in decimal, as an ostream prints it.
template <std::integral T>
void appendInteger(std::string& out, T v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

/// Join strings with a separator.
std::string join(std::span<const std::string> parts, const std::string& sep);

/// Left-pad (negative width) or right-pad a string with spaces to |width|.
std::string pad(const std::string& s, int width);

/// Render a simple monospace table: first row is the header; column widths
/// auto-fit; returns the complete multi-line string.
std::string table(const std::vector<std::vector<std::string>>& rows);

/// A sparkline string using Unicode block characters, scaled to [min,max]
/// of the data; empty input gives an empty string.
std::string sparkline(std::span<const double> values);

/// Strict non-negative integer parse (digits only, no sign/whitespace).
/// On failure returns false and leaves `out` unchanged.
bool parseSize(const std::string& value, std::size_t& out);

/// Full-token floating-point parse that rejects NaN and +-infinity. On
/// failure returns false and leaves `out` unchanged.
bool parseDouble(const std::string& value, double& out);

}  // namespace perfvar::fmt

#endif  // PERFVAR_UTIL_FORMAT_HPP
