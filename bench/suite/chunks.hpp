#ifndef PERFVAR_BENCH_SUITE_CHUNKS_HPP
#define PERFVAR_BENCH_SUITE_CHUNKS_HPP

/// \file chunks.hpp
/// A trace cut into streaming chunks, as a producer sends it to the
/// server: v2 images of consecutive time windows (trace::splitByTime),
/// plus the order they go out in.

#include <cstddef>
#include <string>
#include <vector>

namespace perfvar {
class Rng;
}
namespace perfvar::trace {
struct Trace;
}

namespace perfvar::bench {

struct ChunkStream {
  std::vector<std::string> images;     ///< time order
  std::vector<std::size_t> sendOrder;  ///< indices into `images`
};

/// Cut `trace` into `count` windows. With `shuffle`, adjacent pairs of
/// the send order are swapped with probability 1/4 (disjoint pairs, so
/// no chunk arrives more than one place late); otherwise it is in time
/// order.
ChunkStream makeChunkStream(const trace::Trace& trace, std::size_t count,
                            Rng* shuffle);

void writeChunkStream(const std::string& path, const ChunkStream& stream);
ChunkStream readChunkStream(const std::string& path);

/// The server reorder window the benchmark configures: four times the
/// largest chunk, so a chunk sent one place late is still accepted.
std::size_t reorderWindowBytes(const ChunkStream& stream);

}  // namespace perfvar::bench

#endif  // PERFVAR_BENCH_SUITE_CHUNKS_HPP
