/// Parameterized edge sweeps: text-format fuzz lines and referenceZ
/// fallback behaviour.

#include <gtest/gtest.h>

#include "trace/text_io.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace perfvar {
namespace {

// --- PVTX parser rejects malformed records --------------------------------------

class PvtxFuzzSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(PvtxFuzzSweep, MalformedInputThrows) {
  const std::string prefix =
      "PVTX 1\nresolution 1000\nfunction 0 \"f\" \"\" COMPUTE\n"
      "process 0 \"Rank 0\"\n";
  EXPECT_THROW(trace::fromText(prefix + GetParam() + "\n"), Error);
}

INSTANTIATE_TEST_SUITE_P(
    Lines, PvtxFuzzSweep,
    ::testing::Values("E",                    // missing fields
                      "E ten 0",              // non-numeric time
                      "E 0 0 trailing",       // trailing tokens
                      "M 0 0",                // metric without value
                      "function 5 \"g\" \"\" COMPUTE",  // id mismatch
                      "function 1 \"g\" \"\" NOPE",     // bad paradigm
                      "metric 0 \"m\" \"\" SOMETIMES",  // bad mode
                      "process 5 \"Rank 5\"",           // id gap
                      "S 0 1 2",               // send missing bytes
                      "E 0 \"quoted\"",        // quoted where int expected
                      "resolution 0"));        // zero resolution

// --- referenceZ fallback chain ------------------------------------------------------

TEST(ReferenceZ, MadPath) {
  const std::vector<double> ref = {1.0, 2.0, 3.0, 4.0, 100.0};
  EXPECT_GT(stats::referenceZ(50.0, ref), 3.0);
}

TEST(ReferenceZ, StddevFallbackWhenMadZero) {
  // Majority identical -> MAD 0; stddev > 0 takes over.
  const std::vector<double> ref = {5.0, 5.0, 5.0, 5.0, 9.0};
  const double z = stats::referenceZ(7.0, ref);
  EXPECT_GT(z, 0.0);
  EXPECT_LT(z, 100.0);
}

TEST(ReferenceZ, RelativeFallbackForConstantReference) {
  const std::vector<double> ref(8, 10.0);
  EXPECT_EQ(stats::referenceZ(10.0, ref), 0.0);
  EXPECT_GT(stats::referenceZ(10.5, ref), 3.5);
  EXPECT_LT(stats::referenceZ(9.5, ref), -3.5);
}

TEST(ReferenceZ, EmptyReferenceIsZero) {
  EXPECT_EQ(stats::referenceZ(1.0, {}), 0.0);
}

TEST(ReferenceZ, ConstantZeroReferenceUsesAbsoluteEpsilon) {
  const std::vector<double> ref(5, 0.0);
  EXPECT_GT(stats::referenceZ(1e-6, ref), 0.0);
}

}  // namespace
}  // namespace perfvar
