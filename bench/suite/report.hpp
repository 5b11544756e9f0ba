#ifndef PERFVAR_BENCH_SUITE_REPORT_HPP
#define PERFVAR_BENCH_SUITE_REPORT_HPP

/// \file report.hpp
/// The full report a trace_tool user runs on one trace: analyzeTrace,
/// lintTrace, analyzeDependencies, the text export, the lint and
/// dependency reports, and the SOS heatmap as SVG. The offline workloads
/// time it; the parent runs it at one thread for the reference output.

#include <cstddef>
#include <string>

#include "trace/types.hpp"

namespace perfvar::trace {
class TraceView;
}

namespace perfvar::bench {

struct ReportOutput {
  std::string text;                  ///< every rendered part, concatenated
  trace::ProcessId slowestProcess = 0;  ///< the rank the report blames first
};

/// Run the report at `threads` worker threads, one span per layer call.
ReportOutput runReport(const trace::TraceView& view, std::size_t threads);

}  // namespace perfvar::bench

#endif  // PERFVAR_BENCH_SUITE_REPORT_HPP
