#include <cmath>
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/format.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfvar {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.uniform();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntStaysInRangeAndHitsEnds) {
  Rng rng(5);
  bool sawLo = false;
  bool sawHi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
    sawLo |= v == 3;
    sawHi |= v == 9;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, UniformIntRejectsEmptyRange) {
  Rng rng(5);
  EXPECT_THROW(rng.uniformInt(5, 4), Error);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) {
    xs.push_back(rng.normal(2.0, 3.0));
  }
  EXPECT_NEAR(stats::mean(xs), 2.0, 0.1);
  EXPECT_NEAR(stats::stddev(xs), 3.0, 0.1);
}

TEST(Rng, LognormalFactorMedianNearOne) {
  Rng rng(23);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(rng.lognormalFactor(0.3));
  }
  EXPECT_NEAR(stats::median(xs), 1.0, 0.03);
  for (const double x : xs) {
    EXPECT_GT(x, 0.0);
  }
}

TEST(Rng, LognormalFactorZeroSigmaIsExactlyOne) {
  Rng rng(23);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.lognormalFactor(0.0), 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(31);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += rng.exponential(2.0);
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(99);
  Rng child = parent.split();
  // Child stream differs from the parent's continuation.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Format, Seconds) {
  EXPECT_EQ(fmt::seconds(1.5), "1.500 s");
  EXPECT_EQ(fmt::seconds(0.0123), "12.30 ms");
  EXPECT_EQ(fmt::seconds(45e-6), "45.00 us");
  EXPECT_EQ(fmt::seconds(7e-9), "7.0 ns");
}

TEST(Format, Bytes) {
  EXPECT_EQ(fmt::bytes(512), "512 B");
  EXPECT_EQ(fmt::bytes(2048), "2.0 KiB");
  EXPECT_EQ(fmt::bytes(3 * 1024 * 1024), "3.0 MiB");
}

TEST(Format, Percent) {
  EXPECT_EQ(fmt::percent(0.25), "25.0%");
  EXPECT_EQ(fmt::percent(1.0), "100.0%");
}

TEST(Format, PadBothDirections) {
  EXPECT_EQ(fmt::pad("ab", 5), "ab   ");
  EXPECT_EQ(fmt::pad("ab", -5), "   ab");
  EXPECT_EQ(fmt::pad("abcdef", 3), "abcdef");
}

TEST(Format, JoinStrings) {
  const std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(fmt::join(parts, ", "), "a, b, c");
  EXPECT_EQ(fmt::join({}, ", "), "");
}

TEST(Format, TableAlignsColumns) {
  const std::string t = fmt::table({{"name", "value"}, {"x", "10"},
                                    {"longer", "2"}});
  EXPECT_NE(t.find("name    value"), std::string::npos);
  EXPECT_NE(t.find("------"), std::string::npos);
}

TEST(Format, SparklineLengthMatchesInput) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::string s = fmt::sparkline(xs);
  // Each block glyph is 3 UTF-8 bytes.
  EXPECT_EQ(s.size(), 9u);
  EXPECT_TRUE(fmt::sparkline({}).empty());
}

// ---- number writers against the stream conversions they replace -------

/// What an ostream set up like the former writers printed: precision p
/// with the default floatfield (the CSV exports at 12, JSON at 17), or
/// std::fixed with p decimals (fmt::fixed).
class StreamOracle {
public:
  StreamOracle(int precision, bool fixed) {
    if (fixed) {
      os_.setf(std::ios::fixed);
    }
    os_.precision(precision);
  }
  std::string operator()(double v) {
    os_.str(std::string());
    os_ << v;
    return os_.str();
  }

private:
  std::ostringstream os_;
};

struct NumberWriter {
  const char* name;
  int precision;
  bool fixed;
};

constexpr NumberWriter kNumberWriters[] = {
    {"%.12g", 12, false}, {"%.17g", 17, false}, {"%.1f", 1, true},
    {"%.2f", 2, true},    {"%.3f", 3, true},
};

std::string written(const NumberWriter& w, double v) {
  std::string out = "x";  // the writers append
  if (w.fixed) {
    fmt::appendFixed(out, v, w.precision);
  } else {
    fmt::appendGeneral(out, v, w.precision);
  }
  return out.substr(1);
}

/// Compare each of `writers` with its oracle on `values`; report the
/// first few mismatches with the value's bit pattern.
void expectWritersEqualTheStream(const std::vector<double>& values,
                                 std::span<const NumberWriter> writers =
                                     kNumberWriters) {
  for (const NumberWriter& w : writers) {
    StreamOracle oracle(w.precision, w.fixed);
    int reported = 0;
    for (const double v : values) {
      const std::string expected = oracle(v);
      const std::string actual = written(w, v);
      if (actual != expected && reported++ < 5) {
        ADD_FAILURE() << w.name << " of bits 0x" << std::hex
                      << std::bit_cast<std::uint64_t>(v) << std::dec
                      << ": stream '" << expected << "', writer '" << actual
                      << "'";
      }
    }
    EXPECT_EQ(reported, 0) << w.name;
    if (w.fixed) {
      EXPECT_EQ(fmt::fixed(values.front(), w.precision),
                oracle(values.front()));
    }
  }
}

TEST(NumberFormat, WritersEqualTheStreamOnRandomBitPatterns) {
  // A million seeded bit patterns per writer. For %g every pattern is
  // taken as is: the full exponent range, nan payloads and subnormals.
  // A fixed rendering of a huge double is hundreds of digits long on
  // both sides, so the fixed writers get the same patterns with the
  // exponent field folded below 2^64 (sign and fraction bits kept), plus
  // 20 000 unfolded patterns for the huge range.
  Rng rng(0x70C4A25);
  std::vector<double> patterns(1'000'000);
  std::vector<double> folded(patterns.size());
  constexpr std::uint64_t kExponent = std::uint64_t{0x7ff} << 52;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const std::uint64_t bits = rng();
    patterns[i] = std::bit_cast<double>(bits);
    const std::uint64_t exponent = ((bits & kExponent) >> 52) % (1023 + 64);
    folded[i] = std::bit_cast<double>((bits & ~kExponent) | (exponent << 52));
  }
  const std::span<const NumberWriter> general(kNumberWriters, 2);
  const std::span<const NumberWriter> fixed(kNumberWriters + 2, 3);
  expectWritersEqualTheStream(patterns, general);
  expectWritersEqualTheStream(folded, fixed);
  patterns.resize(20'000);
  expectWritersEqualTheStream(patterns, fixed);
}

TEST(NumberFormat, WritersEqualTheStreamOnReportScaleValues) {
  // The magnitudes reports actually print (seconds, z-scores, ratios):
  // random mantissas over 1e-12..1e12, both signs.
  Rng rng(0x5EC0D5);
  std::vector<double> values(100'000);
  for (double& v : values) {
    v = std::pow(10.0, rng.uniform(-12.0, 12.0)) *
        (rng.uniform() < 0.5 ? -1.0 : 1.0);
  }
  expectWritersEqualTheStream(values);
}

TEST(NumberFormat, WritersEqualTheStreamOnSpecialValues) {
  using Limits = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0,
      -0.0,
      Limits::quiet_NaN(),
      -Limits::quiet_NaN(),
      Limits::infinity(),
      -Limits::infinity(),
      Limits::denorm_min(),
      -Limits::denorm_min(),
      Limits::min() - Limits::denorm_min(),  // largest subnormal
      Limits::min(),
      Limits::max(),
      -Limits::max(),
      Limits::epsilon(),
      0.05,
      0.25,
      0.125,
      2.5,
      0.0005,
      1e22,
      9007199254740993.0,
  };
  Rng rng(0xDE40);
  for (int i = 0; i < 10'000; ++i) {
    // Random subnormals: exponent field zero, any fraction.
    const std::uint64_t fraction = rng() & ((std::uint64_t{1} << 52) - 1);
    values.push_back(std::bit_cast<double>(fraction));
    values.push_back(-std::bit_cast<double>(fraction));
  }
  expectWritersEqualTheStream(values);
}

TEST(NumberFormat, WritersEqualTheStreamAtTheExponentSwitchPoints) {
  // %g switches to exponent notation when the exponent after rounding to
  // the precision is below -4 or at least the precision: around 1e-5 and
  // 1e-4, 1e11 and 1e12 (precision 12), 1e16 and 1e17 (precision 17),
  // including values just below a power of ten that round up to it.
  std::vector<double> values;
  for (const double b : {1e-5, 1e-4, 1e11, 1e12, 1e16, 1e17}) {
    double below = b;
    double above = b;
    for (int step = 0; step < 64; ++step) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, 1e300);
      values.push_back(below);
      values.push_back(above);
    }
    values.push_back(b);
    for (const double rel : {4e-13, 5e-13, 6e-13, 4e-18, 5e-18, 6e-18, 1e-9,
                             1e-6, 1e-3}) {
      values.push_back(b * (1.0 - rel));
      values.push_back(b * (1.0 + rel));
    }
    // Fixed decimals round at 0.05 / 0.005 / 0.0005 steps of b.
    for (const double half : {0.05, 0.005, 0.0005}) {
      values.push_back(b + half);
      values.push_back(b - half);
    }
  }
  const std::size_t positive = values.size();
  for (std::size_t i = 0; i < positive; ++i) {
    values.push_back(-values[i]);
  }
  expectWritersEqualTheStream(values);
}

TEST(NumberFormat, WidestOutputsFitAndLargerRequestsThrow) {
  using Limits = std::numeric_limits<double>;
  std::string out;
  fmt::appendFixed(out, -Limits::max(), 64);
  EXPECT_EQ(out.size(), 1u + 309u + 1u + 64u);
  out.clear();
  fmt::appendGeneral(out, -Limits::denorm_min(), 40);
  EXPECT_EQ(out, "-4.940656458412465441765687928682213723651e-324");
  EXPECT_THROW(fmt::appendFixed(out, Limits::max(), 80), Error);
  EXPECT_THROW(fmt::appendGeneral(out, Limits::max(), 80), Error);
}

TEST(NumberFormat, IntegersEqualTheStream) {
  Rng rng(0x1A7);
  std::ostringstream os;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t u = rng() >> (rng() % 64);
    const auto s = static_cast<std::int64_t>(rng());
    std::string out;
    fmt::appendInteger(out, u);
    out += ' ';
    fmt::appendInteger(out, s);
    os.str(std::string());
    os << u << ' ' << s;
    ASSERT_EQ(out, os.str());
  }
}

/// The former JSON string escaping, character by character.
std::string oldJsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(JsonWriter, EscapesKeysAndValuesLikeBefore) {
  std::string every;
  for (int c = 1; c < 256; ++c) {
    every += static_cast<char>(c);
  }
  std::ostringstream out;
  out.precision(3);
  {
    util::JsonWriter w(out);
    w.beginObject();
    w.key(every);
    w.value(every);
    w.key("n");
    w.beginArray();
    w.value(0.1);
    w.value(std::numeric_limits<double>::quiet_NaN());
    w.value(-std::numeric_limits<double>::infinity());
    w.value(std::uint64_t{18446744073709551615ULL});
    w.value(std::int64_t{-9223372036854775807LL - 1});
    w.value(true);
    w.endArray();
    w.endObject();
    // The finished document is on the stream before the writer goes.
    out << '\n';
  }
  EXPECT_EQ(out.str(), "{\"" + oldJsonEscape(every) + "\":\"" +
                           oldJsonEscape(every) +
                           "\",\"n\":[0.10000000000000001,null,null,"
                           "18446744073709551615,-9223372036854775808,"
                           "true]}\n");
  // The writer leaves its stream's precision untouched.
  EXPECT_EQ(out.precision(), 3);
}

TEST(Error, RequireThrowsWithContext) {
  try {
    PERFVAR_REQUIRE(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("math is broken"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace perfvar
