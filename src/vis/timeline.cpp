#include "vis/timeline.hpp"

#include <algorithm>
#include <map>

#include "trace/replay.hpp"
#include "util/error.hpp"

namespace perfvar::vis {

namespace {

/// Color of idle bins (no function on the stack).
constexpr Rgb kIdleColor{245, 245, 245};

/// Categorical palette for application function groups.
const std::vector<Rgb>& categoricalPalette() {
  static const std::vector<Rgb> kPalette = {
      Rgb{123, 63, 153},   // purple (e.g. SPECS in the paper's Fig. 4)
      Rgb{58, 181, 74},    // green (COSMO)
      Rgb{255, 222, 23},   // yellow (coupling)
      Rgb{0, 114, 188},    // blue (dynamics)
      Rgb{140, 98, 57},    // brown (physics)
      Rgb{0, 169, 157},    // teal
      Rgb{236, 0, 140},    // magenta
      Rgb{247, 148, 29},   // orange
      Rgb{102, 102, 102},  // gray
      Rgb{141, 198, 63},   // light green
  };
  return kPalette;
}

/// Invoke `cb(function, t0, t1)` for every maximal interval during which
/// `function` is on top of the call stack of process `p`'s stream; throws
/// MalformedEvent on a ref outside the `nFuncs` defined functions.
template <typename Callback>
void forEachTopInterval(trace::EventSpan events, std::size_t nFuncs,
                        trace::ProcessId p, Callback&& cb) {
  std::vector<trace::FunctionId> stack;
  trace::Timestamp prev = 0;
  bool first = true;
  for (const trace::Event& e : events) {
    if (e.kind != trace::EventKind::Enter &&
        e.kind != trace::EventKind::Leave) {
      continue;
    }
    if (!first && !stack.empty() && e.time > prev) {
      cb(stack.back(), prev, e.time);
    }
    if (e.kind == trace::EventKind::Enter) {
      trace::requireDefinedRef(e.ref, nFuncs, "function", p);
      stack.push_back(e.ref);
    } else {
      PERFVAR_REQUIRE(!stack.empty() && stack.back() == e.ref,
                      "timeline: unbalanced enter/leave");
      stack.pop_back();
    }
    prev = e.time;
    first = false;
  }
}

struct TimeWindow {
  trace::Timestamp start;
  trace::Timestamp end;
};

TimeWindow resolveWindow(const trace::TraceView& tr,
                         const TimelineOptions& options) {
  if (options.windowEnd > options.windowStart) {
    return {options.windowStart, options.windowEnd};
  }
  return {tr.startTime(), tr.endTime()};
}

}  // namespace

FunctionColors FunctionColors::standard(const trace::TraceView& tr) {
  FunctionColors fc;
  fc.view_ = tr;
  fc.byFunction_.resize(tr.functions().size());
  std::map<std::string, Rgb> groupColor;
  std::size_t nextPaletteSlot = 0;

  for (std::size_t f = 0; f < tr.functions().size(); ++f) {
    const auto& def = tr.functions().at(static_cast<trace::FunctionId>(f));
    Rgb c;
    switch (def.paradigm) {
      case trace::Paradigm::MPI:
        c = Rgb{215, 25, 28};  // red, as in Vampir
        break;
      case trace::Paradigm::OpenMP:
        c = Rgb{247, 148, 29};  // orange
        break;
      case trace::Paradigm::IO:
        c = Rgb{121, 85, 61};  // brown
        break;
      case trace::Paradigm::Memory:
        c = Rgb{150, 150, 200};
        break;
      default: {
        const std::string key = def.group.empty() ? def.name : def.group;
        const auto it = groupColor.find(key);
        if (it != groupColor.end()) {
          c = it->second;
        } else {
          const auto& palette = categoricalPalette();
          c = palette[nextPaletteSlot % palette.size()];
          ++nextPaletteSlot;
          groupColor.emplace(key, c);
        }
        break;
      }
    }
    fc.byFunction_[f] = c;
  }

  // Legend: one entry per distinct label.
  std::map<std::string, Rgb> legendMap;
  for (std::size_t f = 0; f < tr.functions().size(); ++f) {
    const auto& def = tr.functions().at(static_cast<trace::FunctionId>(f));
    std::string label;
    if (def.paradigm == trace::Paradigm::MPI) {
      label = "MPI";
    } else if (def.paradigm == trace::Paradigm::OpenMP) {
      label = "OpenMP";
    } else if (def.paradigm == trace::Paradigm::IO) {
      label = "I/O";
    } else {
      label = def.group.empty() ? def.name : def.group;
    }
    legendMap.emplace(label, fc.byFunction_[f]);
  }
  fc.legend_.assign(legendMap.begin(), legendMap.end());
  return fc;
}

Rgb FunctionColors::color(trace::FunctionId f) const {
  PERFVAR_REQUIRE(f < byFunction_.size(), "invalid function id");
  return byFunction_[f];
}

void FunctionColors::setGroupColor(const std::string& group, Rgb c) {
  PERFVAR_REQUIRE(view_.valid(), "uninitialized FunctionColors");
  for (std::size_t f = 0; f < view_.functions().size(); ++f) {
    if (view_.functions().at(static_cast<trace::FunctionId>(f)).group ==
        group) {
      byFunction_[f] = c;
    }
  }
  for (auto& [label, color] : legend_) {
    if (label == group) {
      color = c;
    }
  }
}

std::vector<std::pair<std::string, Rgb>> FunctionColors::legend() const {
  return legend_;
}

std::vector<std::vector<trace::FunctionId>> timelineBins(
    const trace::TraceView& tr, const TimelineOptions& options) {
  PERFVAR_REQUIRE(options.bins > 0, "timeline needs at least one bin");
  const TimeWindow window = resolveWindow(tr, options);
  const double span = static_cast<double>(window.end - window.start);
  const std::size_t bins = options.bins;
  const std::size_t nFuncs = tr.functions().size();

  std::vector<std::vector<trace::FunctionId>> result(
      tr.processCount(),
      std::vector<trace::FunctionId>(bins, trace::kInvalidFunction));
  for (trace::ProcessId p = 0; p < tr.processCount(); ++p) {
    if (tr.isQuarantined(p)) {
      std::fill(result[p].begin(), result[p].end(), kTimelineNoData);
    }
  }
  if (span <= 0.0) {
    return result;
  }

  // coverage[bin][func] = covered ticks within the bin.
  std::vector<std::vector<double>> coverage(bins,
                                            std::vector<double>(nFuncs, 0.0));
  for (trace::ProcessId p = 0; p < tr.processCount(); ++p) {
    if (tr.isQuarantined(p)) {
      continue;
    }
    for (auto& binRow : coverage) {
      std::fill(binRow.begin(), binRow.end(), 0.0);
    }
    const trace::RankPin pin = tr.rank(p);
    forEachTopInterval(
        pin.events(), nFuncs, p,
        [&](trace::FunctionId f, trace::Timestamp t0, trace::Timestamp t1) {
          const trace::Timestamp a = std::max(t0, window.start);
          const trace::Timestamp b = std::min(t1, window.end);
          if (a >= b) {
            return;
          }
          const double binWidth = span / static_cast<double>(bins);
          const auto firstBin = static_cast<std::size_t>(
              static_cast<double>(a - window.start) / binWidth);
          const auto lastBin = std::min(
              bins - 1, static_cast<std::size_t>(
                            static_cast<double>(b - 1 - window.start) /
                            binWidth));
          for (std::size_t bin = firstBin; bin <= lastBin; ++bin) {
            const double binStart =
                static_cast<double>(window.start) +
                binWidth * static_cast<double>(bin);
            const double lo = std::max(binStart, static_cast<double>(a));
            const double hi =
                std::min(binStart + binWidth, static_cast<double>(b));
            if (hi > lo) {
              coverage[bin][f] += hi - lo;
            }
          }
        });
    for (std::size_t bin = 0; bin < bins; ++bin) {
      double best = 0.0;
      trace::FunctionId bestF = trace::kInvalidFunction;
      for (std::size_t f = 0; f < nFuncs; ++f) {
        if (coverage[bin][f] > best) {
          best = coverage[bin][f];
          bestF = static_cast<trace::FunctionId>(f);
        }
      }
      result[p][bin] = bestF;
    }
  }
  return result;
}

SvgDocument renderTimelineSvg(const trace::TraceView& tr,
                              const FunctionColors& colors,
                              const TimelineOptions& options) {
  const auto bins = timelineBins(tr, options);
  const std::size_t rows = bins.size();
  const std::size_t cols = options.bins;
  const double cellW = std::max(1.0, 900.0 / static_cast<double>(cols));
  const double rowH = std::max(2.0, 500.0 / static_cast<double>(rows));
  const double titleH = options.title.empty() ? 0.0 : 24.0;
  const double legendH = options.legend ? 20.0 : 0.0;
  const double plotW = cellW * static_cast<double>(cols);
  const double plotH = rowH * static_cast<double>(rows);
  SvgDocument svg(plotW + 10, titleH + plotH + legendH + 10);
  if (!options.title.empty()) {
    svg.text(4, 16, options.title, Rgb{0, 0, 0}, 14.0);
  }
  const double x0 = 4;
  const double y0 = titleH + 4;

  for (std::size_t r = 0; r < rows; ++r) {
    // Merge equal-colored runs into single rects to keep files small.
    std::size_t c = 0;
    while (c < cols) {
      std::size_t c1 = c + 1;
      while (c1 < cols && bins[r][c1] == bins[r][c]) {
        ++c1;
      }
      const trace::FunctionId f = bins[r][c];
      const Rgb color = f == trace::kInvalidFunction ? kIdleColor
                        : f == kTimelineNoData       ? kNoDataColor
                                                     : colors.color(f);
      svg.rect(x0 + cellW * static_cast<double>(c),
               y0 + rowH * static_cast<double>(r),
               cellW * static_cast<double>(c1 - c) + 0.2, rowH + 0.2, color);
      c = c1;
    }
  }

  if (options.messageLines) {
    const TimeWindow window = resolveWindow(tr, options);
    const double span = static_cast<double>(window.end - window.start);
    if (span > 0.0) {
      struct Msg {
        trace::Timestamp sendTime;
        trace::Timestamp recvTime;
        trace::ProcessId src;
        trace::ProcessId dst;
        std::uint64_t bytes;
      };
      // FIFO matching per (src, dst, tag).
      std::map<std::tuple<trace::ProcessId, trace::ProcessId, std::uint32_t>,
               std::vector<trace::Timestamp>>
          pendingSends;
      for (trace::ProcessId p = 0; p < tr.processCount(); ++p) {
        if (tr.isQuarantined(p)) {
          continue;  // salvaged partial streams are not trustworthy
        }
        const trace::RankPin pin = tr.rank(p);
        for (const auto& e : pin.events()) {
          if (e.kind == trace::EventKind::MpiSend) {
            pendingSends[{p, e.ref, e.aux}].push_back(e.time);
          }
        }
      }
      std::map<std::tuple<trace::ProcessId, trace::ProcessId, std::uint32_t>,
               std::size_t>
          nextSend;
      std::vector<Msg> messages;
      for (trace::ProcessId p = 0; p < tr.processCount(); ++p) {
        if (tr.isQuarantined(p)) {
          continue;
        }
        const trace::RankPin pin = tr.rank(p);
        for (const auto& e : pin.events()) {
          if (e.kind == trace::EventKind::MpiRecv) {
            const auto key = std::make_tuple(
                static_cast<trace::ProcessId>(e.ref), p, e.aux);
            const auto it = pendingSends.find(key);
            if (it != pendingSends.end()) {
              std::size_t& idx = nextSend[key];
              if (idx < it->second.size()) {
                messages.push_back(Msg{it->second[idx], e.time,
                                       static_cast<trace::ProcessId>(e.ref), p,
                                       e.size});
                ++idx;
              }
            }
          }
        }
      }
      std::sort(messages.begin(), messages.end(),
                [](const Msg& a, const Msg& b) { return a.bytes > b.bytes; });
      if (messages.size() > options.maxMessageLines) {
        messages.resize(options.maxMessageLines);
      }
      for (const Msg& m : messages) {
        if (m.sendTime < window.start || m.recvTime > window.end) {
          continue;
        }
        const double xA =
            x0 + plotW * static_cast<double>(m.sendTime - window.start) / span;
        const double xB =
            x0 + plotW * static_cast<double>(m.recvTime - window.start) / span;
        const double yA = y0 + rowH * (static_cast<double>(m.src) + 0.5);
        const double yB = y0 + rowH * (static_cast<double>(m.dst) + 0.5);
        svg.line(xA, yA, xB, yB, Rgb{0, 0, 0}, 0.4);
      }
    }
  }

  if (options.legend) {
    double x = x0;
    const double y = y0 + plotH + 14;
    for (const auto& [label, color] : colors.legend()) {
      svg.rect(x, y - 8, 10, 10, color);
      svg.text(x + 14, y, label, Rgb{0, 0, 0}, 10.0);
      x += 24 + 6.5 * static_cast<double>(label.size());
    }
  }
  return svg;
}

std::vector<std::vector<double>> paradigmShareOverTime(
    const trace::TraceView& tr, std::size_t bins) {
  PERFVAR_REQUIRE(bins > 0, "needs at least one bin");
  const trace::Timestamp start = tr.startTime();
  const trace::Timestamp end = tr.endTime();
  const double span = static_cast<double>(end - start);
  constexpr std::size_t kParadigms = 6;
  std::vector<std::vector<double>> shares(kParadigms,
                                          std::vector<double>(bins, 0.0));
  if (span <= 0.0) {
    return shares;
  }
  std::vector<double> busy(bins, 0.0);
  const double binWidth = span / static_cast<double>(bins);
  for (trace::ProcessId p = 0; p < tr.processCount(); ++p) {
    const trace::RankPin pin = tr.rank(p);
    forEachTopInterval(
        pin.events(), tr.functions().size(), p,
        [&](trace::FunctionId f, trace::Timestamp t0, trace::Timestamp t1) {
          const auto paradigm = static_cast<std::size_t>(
              tr.functions().at(f).paradigm);
          const auto firstBin = static_cast<std::size_t>(
              static_cast<double>(t0 - start) / binWidth);
          const auto lastBin = std::min(
              bins - 1,
              static_cast<std::size_t>(static_cast<double>(t1 - 1 - start) /
                                       binWidth));
          for (std::size_t bin = firstBin; bin <= lastBin; ++bin) {
            const double binStart =
                static_cast<double>(start) +
                binWidth * static_cast<double>(bin);
            const double lo = std::max(binStart, static_cast<double>(t0));
            const double hi =
                std::min(binStart + binWidth, static_cast<double>(t1));
            if (hi > lo) {
              shares[paradigm][bin] += hi - lo;
              busy[bin] += hi - lo;
            }
          }
        });
  }
  for (std::size_t par = 0; par < kParadigms; ++par) {
    for (std::size_t bin = 0; bin < bins; ++bin) {
      shares[par][bin] = busy[bin] > 0.0 ? shares[par][bin] / busy[bin] : 0.0;
    }
  }
  return shares;
}

}  // namespace perfvar::vis
