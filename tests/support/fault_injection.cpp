#include "support/fault_injection.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "trace/binary_io.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace perfvar::testing {

namespace {

// v2 fixed-header geometry (mirrors binary_v2.cpp; see docs/FORMAT.md).
constexpr std::size_t kHeaderHashOffset = 8;
constexpr std::size_t kFixedHeaderOffset = 16;
constexpr std::size_t kProcessCountOffset = 24;
constexpr std::size_t kTableOffset = 48;
constexpr std::size_t kTableEntrySize = 32;
constexpr std::size_t kEntryEventsOffset = 16;  // within a table entry

std::uint64_t getU64LE(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

void putU64LE(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
  }
}

std::uint32_t imageVersion(const Image& image) {
  PERFVAR_REQUIRE(image.size() >= 8, "fault injection: image too small");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(image[4 + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

/// Mutable view of rank `rank`'s v2 block-table entry.
unsigned char* tableEntry(Image& image, std::size_t rank) {
  PERFVAR_REQUIRE(imageVersion(image) == trace::kBinaryFormatV2,
                  "fault injection: table faults require a v2 image");
  PERFVAR_REQUIRE(image.size() >= kTableOffset,
                  "fault injection: v2 image too small");
  const std::uint64_t nProcs = getU64LE(image.data() + kProcessCountOffset);
  PERFVAR_REQUIRE(rank < nProcs, "fault injection: rank out of range");
  const std::size_t entry = kTableOffset + rank * kTableEntrySize;
  PERFVAR_REQUIRE(entry + kTableEntrySize <= image.size(),
                  "fault injection: v2 block table out of range");
  return image.data() + entry;
}

/// Re-seal the v2 header hash after a table mutation, so the fault stays
/// block-local instead of tripping the header verification.
void fixHeaderHash(Image& image) {
  const std::uint64_t nProcs = getU64LE(image.data() + kProcessCountOffset);
  const std::size_t headerEnd =
      kTableOffset + static_cast<std::size_t>(nProcs) * kTableEntrySize;
  PERFVAR_REQUIRE(headerEnd <= image.size(),
                  "fault injection: v2 block table out of range");
  const std::uint64_t h = util::Hasher{}
                              .bytes(image.data() + kFixedHeaderOffset,
                                     headerEnd - kFixedHeaderOffset)
                              .digest();
  putU64LE(image.data() + kHeaderHashOffset, h);
}

}  // namespace

Image encodeImage(const trace::Trace& tr, std::uint32_t version) {
  std::ostringstream os;
  trace::BinaryWriteOptions options;
  options.version = version;
  trace::writeBinary(tr, os, options);
  const std::string s = os.str();
  return Image(s.begin(), s.end());
}

Image FaultInjector::truncateAt(const Image& image, std::size_t size) {
  PERFVAR_REQUIRE(size <= image.size(),
                  "fault injection: truncation size beyond image");
  return Image(image.begin(),
               image.begin() + static_cast<std::ptrdiff_t>(size));
}

Image FaultInjector::tornTail(const Image& image, std::size_t tailBytes) {
  Image out = image;
  const std::size_t n = std::min(tailBytes, out.size());
  std::fill(out.end() - static_cast<std::ptrdiff_t>(n), out.end(),
            static_cast<unsigned char>(0));
  return out;
}

Image FaultInjector::zeroTableEntry(const Image& image, std::size_t rank) {
  Image out = image;
  unsigned char* entry = tableEntry(out, rank);
  std::fill(entry, entry + kTableEntrySize, static_cast<unsigned char>(0));
  fixHeaderHash(out);
  return out;
}

Image FaultInjector::oversizeCount(const Image& image, std::size_t rank) {
  Image out = image;
  unsigned char* entry = tableEntry(out, rank);
  putU64LE(entry + kEntryEventsOffset, out.size() + 1);
  fixHeaderHash(out);
  return out;
}

Image FaultInjector::bitFlip(const Image& image, std::size_t lo,
                             std::size_t hi, std::size_t flips) {
  PERFVAR_REQUIRE(lo < hi && hi <= image.size(),
                  "fault injection: bit-flip range out of image");
  PERFVAR_REQUIRE(flips <= 8 * (hi - lo),
                  "fault injection: more flips than bits in range");
  Image out = image;
  std::vector<std::pair<std::size_t, unsigned>> done;
  while (done.size() < flips) {
    const auto byte = static_cast<std::size_t>(rng_.uniformInt(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi) - 1));
    const auto bit = static_cast<unsigned>(rng_.uniformInt(0, 7));
    // Distinct bits only: a repeated flip would undo itself and could
    // hand the matrix an uncorrupted "corrupt" image.
    if (std::find(done.begin(), done.end(), std::make_pair(byte, bit)) !=
        done.end()) {
      continue;
    }
    out[byte] ^= static_cast<unsigned char>(1u << bit);
    done.emplace_back(byte, bit);
  }
  return out;
}

}  // namespace perfvar::testing
