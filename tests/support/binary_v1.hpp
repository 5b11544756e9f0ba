#ifndef PERFVAR_TESTS_SUPPORT_BINARY_V1_HPP
#define PERFVAR_TESTS_SUPPORT_BINARY_V1_HPP

/// \file binary_v1.hpp
/// Encoder of the legacy PVTF v1 layout (docs/FORMAT.md).
///
/// perfvar reads v1 files but writes only v2, so the v1 reader's fuzz,
/// fault and round-trip tests encode their v1 inputs here. The bytes are
/// the ones the library's own v1 writer produced (BinaryV2's golden v1
/// blob pins them). Test tooling only: it builds into the
/// perfvar_test_support library.

#include <iosfwd>

#include "trace/trace.hpp"

namespace perfvar::testing {

/// Serialize `trace` as a PVTF v1 file: magic, version 1, one streaming
/// payload, FNV-1a-64 trailer.
void writeBinaryV1(const trace::Trace& trace, std::ostream& out);

}  // namespace perfvar::testing

#endif  // PERFVAR_TESTS_SUPPORT_BINARY_V1_HPP
