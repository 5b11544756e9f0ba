#ifndef PERFVAR_ANALYSIS_SEGMENTS_HPP
#define PERFVAR_ANALYSIS_SEGMENTS_HPP

/// \file segments.hpp
/// Partitioning of process timelines into segments.
///
/// A segment is one *outermost* invocation of the segmentation function
/// (normally the time-dominant function) on one process; its duration is
/// the invocation's inclusive time (paper Section III, footnote 1).

#include <vector>

#include "trace/trace.hpp"
#include "trace/view.hpp"

namespace perfvar::analysis {

/// One segment of one process timeline.
struct Segment {
  trace::ProcessId process = 0;
  std::uint32_t index = 0;  ///< 0-based order on this process
  trace::Timestamp enter = 0;
  trace::Timestamp leave = 0;

  trace::Timestamp inclusive() const { return leave - enter; }
  bool contains(trace::Timestamp t) const { return t >= enter && t < leave; }
};

/// Extract the segments of every process for segmentation function `f`.
/// Nested (recursive) invocations of `f` are not split into sub-segments;
/// only the outermost invocation forms a segment. Result is indexed by
/// process; processes that never invoke `f` get an empty vector.
std::vector<std::vector<Segment>> extractSegments(const trace::TraceView& trace,
                                                  trace::FunctionId f);

/// Summary of the segmentation shape.
struct SegmentationInfo {
  std::size_t totalSegments = 0;
  std::size_t minPerProcess = 0;
  std::size_t maxPerProcess = 0;
  bool uniform = false;  ///< all processes have the same segment count
};

SegmentationInfo describeSegmentation(
    const std::vector<std::vector<Segment>>& segments);

}  // namespace perfvar::analysis

#endif  // PERFVAR_ANALYSIS_SEGMENTS_HPP
