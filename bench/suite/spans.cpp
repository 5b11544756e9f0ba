#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "util/json_writer.hpp"

namespace perfvar::bench {
namespace {

std::atomic<bool> gEnabled{false};
std::atomic<std::uint64_t> gNextRequest{1};

std::mutex gMutex;
std::vector<SpanRecord> gSpans;  // guarded by gMutex

// Innermost open span of this thread and the request it belongs to.
thread_local std::int64_t tOpen = -1;
thread_local std::uint64_t tRequest = 0;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void enableSpans(bool on) { gEnabled.store(on); }

bool spansEnabled() { return gEnabled.load(); }

std::vector<SpanRecord> recordedSpans() {
  std::lock_guard<std::mutex> lock(gMutex);
  return gSpans;
}

Span::Span(std::string_view name) {
  if (!gEnabled.load(std::memory_order_relaxed)) {
    return;
  }
  SpanRecord record;
  record.name = std::string(name);
  record.parent = tOpen;
  record.request = tOpen < 0 ? gNextRequest.fetch_add(1) : tRequest;
  const std::uint64_t request = record.request;
  {
    std::lock_guard<std::mutex> lock(gMutex);
    index_ = static_cast<std::int64_t>(gSpans.size());
    gSpans.push_back(std::move(record));
    gSpans.back().startNs = nowNs();
  }
  tOpen = index_;
  tRequest = request;
}

Span::~Span() {
  if (index_ < 0) {
    return;
  }
  const std::int64_t end = nowNs();
  std::lock_guard<std::mutex> lock(gMutex);
  SpanRecord& record = gSpans[static_cast<std::size_t>(index_)];
  record.endNs = end;
  tOpen = record.parent;
}

std::vector<SpanSummary> summarizeSpans(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<SpanSummary> out;
  std::unordered_map<std::string, std::size_t> byName;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    // Union of the child intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const std::size_t c : children[i]) {
      covered.emplace_back(std::max(spans[c].startNs, s.startNs),
                           std::min(spans[c].endNs, s.endNs));
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t coveredNs = 0;
    std::int64_t reach = s.startNs;
    for (const auto& [begin, end] : covered) {
      const std::int64_t from = std::max(begin, reach);
      if (end > from) {
        coveredNs += end - from;
        reach = end;
      }
    }
    const double duration = static_cast<double>(s.endNs - s.startNs) * 1e-9;
    const auto [slot, added] = byName.try_emplace(s.name, out.size());
    if (added) {
      out.push_back(SpanSummary{s.name, 0, 0.0, 0.0, {}});
    }
    SpanSummary& summary = out[slot->second];
    ++summary.count;
    summary.totalSeconds += duration;
    summary.selfSeconds += duration - static_cast<double>(coveredNs) * 1e-9;
    summary.durations.push_back(duration);
  }
  return out;
}

void writeSpansJson(const std::vector<SpanRecord>& spans,
                    const std::string& path) {
  std::ofstream out(path);
  util::JsonWriter json(out);
  json.beginArray();
  for (const SpanRecord& s : spans) {
    json.beginObject();
    json.key("name");
    json.value(s.name);
    json.key("start_ns");
    json.value(s.startNs);
    json.key("end_ns");
    json.value(s.endNs);
    json.key("parent");
    json.value(s.parent);
    json.key("request");
    json.value(s.request);
    json.endObject();
  }
  json.endArray();
  out << '\n';
}

}  // namespace perfvar::bench
