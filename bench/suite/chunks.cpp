#include "chunks.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "trace/binary_io.hpp"
#include "trace/filter.hpp"
#include "util/rng.hpp"

namespace perfvar::bench {
namespace {

// Bench-private layout, written and read on the same host:
//   u64 count | count x (u64 chunk index | u64 size | image bytes),
// records in send order.
void putU64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

std::uint64_t getU64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!in) {
    throw std::runtime_error("truncated chunk stream file");
  }
  return v;
}

}  // namespace

ChunkStream makeChunkStream(const trace::Trace& trace, std::size_t count,
                            Rng* shuffle) {
  ChunkStream stream;
  for (const trace::Trace& chunk : trace::splitByTime(trace, count)) {
    std::ostringstream image;
    trace::writeBinary(chunk, image);
    stream.images.push_back(std::move(image).str());
  }
  stream.sendOrder.resize(stream.images.size());
  std::iota(stream.sendOrder.begin(), stream.sendOrder.end(), 0);
  if (shuffle != nullptr) {
    for (std::size_t i = 0; i + 1 < stream.sendOrder.size(); ++i) {
      if (shuffle->uniform() < 0.25) {
        std::swap(stream.sendOrder[i], stream.sendOrder[i + 1]);
        ++i;
      }
    }
  }
  return stream;
}

void writeChunkStream(const std::string& path, const ChunkStream& stream) {
  std::ofstream out(path, std::ios::binary);
  putU64(out, stream.sendOrder.size());
  for (const std::size_t index : stream.sendOrder) {
    const std::string& image = stream.images[index];
    putU64(out, index);
    putU64(out, image.size());
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
  }
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

std::size_t reorderWindowBytes(const ChunkStream& stream) {
  std::size_t largest = 0;
  for (const std::string& image : stream.images) {
    largest = std::max(largest, image.size());
  }
  return 4 * largest;
}

ChunkStream readChunkStream(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  ChunkStream stream;
  const std::uint64_t count = getU64(in);
  stream.images.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t index = getU64(in);
    const std::uint64_t size = getU64(in);
    if (index >= count || size > (std::uint64_t{1} << 32)) {
      throw std::runtime_error("corrupt chunk stream file " + path);
    }
    std::string& image = stream.images[index];
    image.resize(size);
    in.read(image.data(), static_cast<std::streamsize>(size));
    if (!in) {
      throw std::runtime_error("truncated chunk stream file " + path);
    }
    stream.sendOrder.push_back(index);
  }
  return stream;
}

}  // namespace perfvar::bench
