#ifndef PERFVAR_BENCH_SUITE_SPANS_HPP
#define PERFVAR_BENCH_SUITE_SPANS_HPP

/// \file spans.hpp
/// In-memory spans of the traced run.
///
/// The benchmark wraps each call it makes into a layer's public functions
/// in a Span named `<layer>.<call>`. Spans record start, end, the span
/// that was open on the same thread when they started (their parent) and
/// a request id shared by every span under one root. Recording is off
/// unless enabled, so the untraced run pays one branch per span; the
/// spans stay in memory until the run writes them out.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfvar::bench {

struct SpanRecord {
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int64_t parent = -1;  ///< index into the same span list, -1 = root
  std::uint64_t request = 0;
};

/// Turn recording on or off for the whole process.
void enableSpans(bool on);
bool spansEnabled();

/// Every span recorded so far, in start order.
std::vector<SpanRecord> recordedSpans();

/// Scoped span; a no-op while recording is off.
class Span {
public:
  explicit Span(std::string_view name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

private:
  std::int64_t index_ = -1;
};

/// Run `body` under a span called `name` and return what it returns.
template <typename F>
decltype(auto) inSpan(std::string_view name, F&& body) {
  Span span(name);
  return body();
}

/// Time of one span name over a span list.
struct SpanSummary {
  std::string name;
  std::size_t count = 0;
  double totalSeconds = 0.0;
  /// Duration minus the part of it that child spans cover.
  double selfSeconds = 0.0;
  std::vector<double> durations;  ///< seconds, in start order
};

/// One summary per span name, in order of first appearance.
std::vector<SpanSummary> summarizeSpans(const std::vector<SpanRecord>& spans);

/// Write the spans as a JSON array.
void writeSpansJson(const std::vector<SpanRecord>& spans,
                    const std::string& path);

}  // namespace perfvar::bench

#endif  // PERFVAR_BENCH_SUITE_SPANS_HPP
