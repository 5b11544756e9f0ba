#ifndef PERFVAR_UTIL_FORMAT_HPP
#define PERFVAR_UTIL_FORMAT_HPP

/// \file format.hpp
/// Small text-formatting and number-parsing helpers shared by reports,
/// dumps, benches and the command parsers.

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

/// Fixed-point with the given number of decimals.
std::string fixed(double v, int decimals);

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
