#ifndef PERFVAR_VIS_TIMELINE_HPP
#define PERFVAR_VIS_TIMELINE_HPP

/// \file timeline.hpp
/// Master-timeline rendering of traces (Vampir's main view; paper
/// Figures 4(a), 5(a), 6(a)).
///
/// One row per process; the horizontal axis is trace time; the color of a
/// pixel column is the function on top of the call stack (the currently
/// executing function) that covers the largest share of the column's time
/// span. Function colors derive from their group (consistent with the
/// paper: MPI = red, application groups get distinct colors).

#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "trace/view.hpp"
#include "vis/color.hpp"
#include "vis/svg.hpp"

namespace perfvar::vis {

/// Assigns colors to functions, by function group (preferred) or paradigm.
class FunctionColors {
public:
  /// Default palette: MPI red, IO brown, OpenMP orange; application
  /// groups cycle through a categorical palette; ungrouped compute green.
  static FunctionColors standard(const trace::TraceView& trace);

  Rgb color(trace::FunctionId f) const;

  /// Legend entries: (label, color), deduplicated by group.
  std::vector<std::pair<std::string, Rgb>> legend() const;

private:
  FunctionColors() = default;
  std::vector<Rgb> byFunction_;
  std::vector<std::pair<std::string, Rgb>> legend_;
};

/// Options of the timeline renderer. Idle bins (no function on the stack)
/// render in #f5f5f5, quarantined rank rows in kNoDataColor.
struct TimelineOptions {
  std::string title;
  /// Horizontal resolution (number of time bins).
  std::size_t bins = 900;
  /// Draw message (send->recv) lines.
  bool messageLines = true;
  /// Maximum number of message lines drawn (largest-bytes first).
  std::size_t maxMessageLines = 2000;
  /// Render the function-group legend.
  bool legend = true;
  /// Restrict rendering to [start, end) ticks; 0/0 = full trace.
  trace::Timestamp windowStart = 0;
  trace::Timestamp windowEnd = 0;
};

/// Sentinel bin value marking a quarantined rank's row: the renderer
/// paints it in kNoDataColor, distinct from idle, instead of looking up a
/// function color.
inline constexpr trace::FunctionId kTimelineNoData =
    trace::kInvalidFunction - 1;

/// Compute the [process][bin] dominant-function matrix underlying the
/// timeline: each cell holds the FunctionId covering the largest time
/// share of that bin on top of the stack, or trace::kInvalidFunction for
/// idle. Rows of quarantined ranks are filled with kTimelineNoData —
/// salvaged partial data is deliberately not drawn as if it were sound.
/// Exposed for tests. Throws MalformedEvent on an undefined function ref.
std::vector<std::vector<trace::FunctionId>> timelineBins(
    const trace::TraceView& trace, const TimelineOptions& options);

/// SVG timeline (with optional message lines).
SvgDocument renderTimelineSvg(const trace::TraceView& trace,
                              const FunctionColors& colors,
                              const TimelineOptions& options);

/// Fraction of total stack-top time per paradigm over `bins` time bins,
/// aggregated across processes: series[paradigm][bin] in [0,1]. This
/// regenerates "MPI share grows over the run" observations from timeline
/// views.
std::vector<std::vector<double>> paradigmShareOverTime(
    const trace::TraceView& trace, std::size_t bins);

}  // namespace perfvar::vis

#endif  // PERFVAR_VIS_TIMELINE_HPP
