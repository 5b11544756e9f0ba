#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "workloads.hpp"

namespace perfvar::bench {

void Measurements::add(std::string name, double value, std::string unit,
                       std::size_t samples) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

const Metric* Measurements::find(std::string_view name) const {
  const auto it = std::find_if(metrics.begin(), metrics.end(),
                               [&](const Metric& m) { return m.name == name; });
  return it == metrics.end() ? nullptr : &*it;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    throw std::runtime_error("quantile of an empty sample");
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  return samples[lo] +
         (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

void addLatency(Measurements& out, std::string_view op,
                const std::vector<double>& seconds, std::string_view unit) {
  const double scale = unit == "ms" ? 1e3 : 1.0;
  const std::string prefix(op);
  const std::string u(unit);
  out.add(prefix + "_p50_" + u, quantile(seconds, 0.5) * scale, u,
          seconds.size());
  out.add(prefix + "_p90_" + u, quantile(seconds, 0.9) * scale, u,
          seconds.size());
}

std::size_t RunContext::count(double perSecond, std::size_t smokeCount) const {
  if (smoke) {
    return smokeCount;
  }
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(perSecond * seconds)));
}

void noteFailure(std::string_view what) {
  static std::atomic<int> reported{0};
  if (reported.fetch_add(1) < 5) {
    std::cerr << "perfvar_bench: operation failed: " << what << '\n';
  }
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all{kOfflineScaleSkewed,
                                         kOfflinePaperCosmo, kQueryDrilldown,
                                         kServeIngest};
  return all;
}

void writeFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return std::move(bytes).str();
}

std::string mismatch(std::string_view what, std::string_view expected,
                     std::string_view actual) {
  const auto diff = static_cast<std::size_t>(
      std::mismatch(expected.begin(),
                    expected.begin() + static_cast<std::ptrdiff_t>(std::min(
                                           expected.size(), actual.size())),
                    actual.begin())
          .first -
      expected.begin());
  const auto excerpt = [diff](std::string_view s) {
    std::string e(s.substr(std::min(diff, s.size()), 40));
    std::replace(e.begin(), e.end(), '\n', ' ');
    return e;
  };
  std::ostringstream line;
  line << what << ": differs at byte " << diff << " of " << expected.size()
       << " (expected \"" << excerpt(expected) << "\", got \""
       << excerpt(actual) << "\")";
  return line.str();
}

std::uint64_t numberAfter(std::string_view text, std::string_view label) {
  const std::size_t at = text.find(label);
  if (at == std::string_view::npos) {
    return 0;
  }
  std::uint64_t n = 0;
  for (std::size_t i = at + label.size();
       i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
    n = n * 10 + static_cast<std::uint64_t>(text[i] - '0');
  }
  return n;
}

}  // namespace perfvar::bench
