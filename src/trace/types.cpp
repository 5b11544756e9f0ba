#include "trace/types.hpp"

#include <cmath>

#include "util/error.hpp"

namespace perfvar::trace {

const char* paradigmName(Paradigm p) {
  switch (p) {
    case Paradigm::Compute:
      return "COMPUTE";
    case Paradigm::MPI:
      return "MPI";
    case Paradigm::OpenMP:
      return "OPENMP";
    case Paradigm::IO:
      return "IO";
    case Paradigm::Memory:
      return "MEMORY";
    case Paradigm::Other:
      return "OTHER";
  }
  return "OTHER";
}

Timestamp secondsToTicks(double s, std::uint64_t resolution) {
  PERFVAR_REQUIRE(s >= 0.0, "secondsToTicks: negative time");
  return static_cast<Timestamp>(
      std::llround(s * static_cast<double>(resolution)));
}

}  // namespace perfvar::trace
