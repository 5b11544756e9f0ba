#ifndef PERFVAR_TESTS_SUPPORT_FAULT_INJECTION_HPP
#define PERFVAR_TESTS_SUPPORT_FAULT_INJECTION_HPP

/// \file fault_injection.hpp
/// Deterministic corruption of PVTF images for robustness testing.
///
/// FaultInjector produces corrupted copies of a serialized trace image:
/// truncation, bit flips, torn (zeroed) tail writes, and v2 block-table
/// mutations. Table mutations re-seal the header hash so the fault stays
/// block-local — the header keeps verifying and Salvage-mode loads must
/// quarantine exactly the targeted rank. All randomness comes from the
/// seeded perfvar::Rng, so every corrupted image is reproducible from
/// (trace, version, seed).
///
/// This is test tooling, not part of the I/O API: it lives in
/// perfvar::testing and builds into the perfvar_test_support library,
/// which only the test binaries link.

#include <cstdint>
#include <vector>

#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace perfvar::testing {

/// A whole-file PVTF image (prologue included).
using Image = std::vector<unsigned char>;

/// Serialize `trace` into an in-memory PVTF image of `version`
/// (trace::kBinaryFormatV1 or V2).
Image encodeImage(const trace::Trace& trace, std::uint32_t version);

/// Deterministic fault factory over PVTF images. The static mutations are
/// pure functions of their arguments; bitFlip() additionally draws from
/// the injector's seeded Rng. Every mutation returns a corrupted copy and
/// leaves the input untouched.
class FaultInjector {
public:
  explicit FaultInjector(std::uint64_t seed) : rng_(seed) {}

  /// Keep only the first `size` bytes (a partial write / lost tail).
  static Image truncateAt(const Image& image, std::size_t size);

  /// Zero the last `tailBytes` bytes without shrinking the file (a torn
  /// write: the space was allocated but the data never hit the disk).
  static Image tornTail(const Image& image, std::size_t tailBytes);

  /// v2 only: zero rank `rank`'s block-table entry and re-seal the header
  /// hash. The header verifies; the rank's block extent is structurally
  /// invalid (offset 0 points before the definitions block).
  static Image zeroTableEntry(const Image& image, std::size_t rank);

  /// v2 only: declare an absurd event count (image size + 1) for rank
  /// `rank` and re-seal the header hash. The block bytes and their
  /// checksum are untouched; only the declared count lies.
  static Image oversizeCount(const Image& image, std::size_t rank);

  /// Flip `flips` distinct random bits within byte range [lo, hi).
  /// Requires lo < hi <= image.size() and flips <= 8 * (hi - lo).
  Image bitFlip(const Image& image, std::size_t lo, std::size_t hi,
                std::size_t flips = 1);

  Rng& rng() { return rng_; }

private:
  Rng rng_;
};

}  // namespace perfvar::testing

#endif  // PERFVAR_TESTS_SUPPORT_FAULT_INJECTION_HPP
