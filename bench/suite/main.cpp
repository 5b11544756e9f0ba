/// \file main.cpp
/// perfvar_bench: the end-to-end benchmark of perfvar.
///
///   perfvar_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
///                 [--smoke] [--out PREFIX]
///
/// Without --workload every workload runs, one after the other. For each
/// one the parent generates the seeded inputs and reference outputs, runs
/// the workload in a child process (this executable again, with --child),
/// checks the child's outputs, and prints each metric by name with its
/// unit and sample count. The last line of a workload's output is one
/// JSON object: the end-to-end metrics of BENCHMARK.json, or with
/// --trace 1 its per-layer metrics. A failed check or a failed operation
/// prints no metrics and exits 1.
///
/// Each workload does a fixed amount of work: --seconds S sets how many
/// operations (reports, queries, stream rounds) its timed phase runs,
/// about S seconds' worth on the seed commit.
///
/// --trace 1 splits the timed phase: an untraced half, a half with spans
/// around every layer call, then the per-layer probes. --out PREFIX
/// writes PREFIX.json (all metrics, for compare.py) and, traced,
/// PREFIX.spans.json.

#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "spans.hpp"
#include "util/json_writer.hpp"

extern char** environ;

namespace perfvar::bench {
namespace {

constexpr int kExitFailed = 1;
constexpr int kExitUsage = 2;
/// Where the parent generates a workload's inputs (removed afterwards).
constexpr std::string_view kWorkDir = ".bench_build/work";
constexpr std::string_view kResultFile = "result.txt";
constexpr std::string_view kSpansFile = "spans.json";
/// A child still running this long after it started is killed: the whole
/// run, generation and checks included, must end within three minutes.
constexpr double kChildDeadlineSeconds = 120.0;

struct Args {
  std::string workload;  ///< empty = all
  std::uint64_t seed = 2026;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  bool child = false;
  std::string dir;  ///< child: the work directory
  std::string out;
};

void printUsage(std::ostream& out) {
  out << "usage: perfvar_bench [--workload NAME] [--seed N] [--seconds S]\n"
         "                     [--trace 0|1] [--smoke] [--out PREFIX]\n"
         "workloads:";
  for (const Workload& w : workloads()) {
    out << ' ' << w.name;
  }
  out << '\n';
}

/// Parse argv; returns false (after a message) on a usage error.
bool parseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(flag + " needs a value");
      }
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.workload = value();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const bool explicitValue =
            i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                             std::strcmp(argv[i + 1], "1") == 0);
        args.trace = explicitValue ? value() == "1" : true;
      } else if (flag == "--smoke") {
        args.smoke = true;
      } else if (flag == "--out") {
        args.out = value();
      } else if (flag == "--child") {
        args.child = true;
      } else if (flag == "--dir") {
        args.dir = value();
      } else if (flag == "--help") {
        printUsage(std::cout);
        std::exit(0);
      } else {
        throw std::invalid_argument("unknown option " + flag);
      }
    } catch (const std::exception& e) {
      std::cerr << "perfvar_bench: " << e.what() << '\n';
      printUsage(std::cerr);
      return false;
    }
  }
  if (!(args.seconds > 0.0 && args.seconds <= 60.0)) {
    std::cerr << "perfvar_bench: --seconds must be in (0, 60]\n";
    return false;
  }
  return true;
}

const Workload* findWorkload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t availableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return 1;
  }
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

/// `<op>_<quantile>_<unit>`: the workload's latency metric.
std::string latencyName(const Workload& w, std::string_view q) {
  return std::string(w.op) + "_" + std::string(q) + "_" + std::string(w.opUnit);
}

// ---- child ------------------------------------------------------------------

/// Peak resident set of this process image. VmHWM, not getrusage: after
/// exec, ru_maxrss still carries the parent's peak (the generator's).
double peakRssMib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      double kib = 0.0;
      std::istringstream(line.substr(6)) >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void writeSection(std::ostream& out, std::string_view section,
                  const Measurements& m) {
  for (const Metric& metric : m.metrics) {
    out << "metric " << section << ' ' << metric.name << ' ' << metric.unit
        << ' ' << metric.samples << ' ' << metric.value << '\n';
  }
}

int runChild(const Args& args, const Workload& w) {
  RunContext ctx{std::string(w.name), args.dir, args.seed, args.seconds,
                 args.trace, args.smoke, availableCpus()};
  Measurements run;
  Measurements traced;
  Measurements layer;
  std::vector<SpanSummary> spans;
  if (!ctx.trace) {
    w.run(ctx, run);
  } else {
    RunContext half = ctx;
    half.seconds = ctx.seconds / 2;
    w.run(half, run);
    enableSpans(true);
    w.run(half, traced);
    spans = summarizeSpans(recordedSpans());
    w.probe(ctx, layer);
    const std::string p50 = latencyName(w, "p50");
    const Metric* untracedP50 = run.find(p50);
    const Metric* tracedP50 = traced.find(p50);
    layer.add("trace_overhead", tracedP50->value / untracedP50->value,
              "ratio", tracedP50->samples);
    for (const SpanSummary& s : spans) {
      if (s.name == w.op) {
        layer.add("span_coverage", 1.0 - s.selfSeconds / s.totalSeconds,
                  "ratio", s.count);
      }
    }
    writeSpansJson(recordedSpans(), ctx.path(kSpansFile));
  }
  run.add("peak_rss_mib", peakRssMib(), "MiB");

  std::ofstream out(ctx.path(kResultFile));
  out.precision(17);
  out << "attempted " << run.attempted + traced.attempted << '\n'
      << "failed " << run.failed + traced.failed << '\n';
  writeSection(out, "run", run);
  writeSection(out, "traced", traced);
  writeSection(out, "layer", layer);
  for (const SpanSummary& s : spans) {
    out << "span " << s.name << ' ' << s.count << ' ' << s.totalSeconds << ' '
        << s.selfSeconds << ' ' << quantile(s.durations, 0.5) << '\n';
  }
  return out ? 0 : kExitFailed;
}

// ---- parent -----------------------------------------------------------------

/// One span name of the traced run, as the child summarized it.
struct SpanRow {
  std::string name;
  std::size_t count = 0;
  double totalSeconds = 0.0;
  double selfSeconds = 0.0;
  double p50Seconds = 0.0;
};

struct ChildResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Measurements run;
  Measurements gated;  ///< untraced runs: the BENCHMARK.json end_to_end set
  Measurements traced;
  Measurements layer;
  std::vector<SpanRow> spans;
};

/// The end-to-end metrics BENCHMARK.json gates: the workload's own, under
/// the names every workload shares.
Measurements gatedMetrics(const Workload& w, const Measurements& run) {
  const auto need = [&run](const std::string& name) -> const Metric& {
    const Metric* m = run.find(name);
    if (m == nullptr) {
      throw std::runtime_error("workload did not measure " + name);
    }
    return *m;
  };
  Measurements gated;
  for (const char* name : {"setup_s", "peak_rss_mib"}) {
    const Metric& m = need(name);
    gated.add(m.name, m.value, m.unit, m.samples);
  }
  const Metric& p50 = need(latencyName(w, "p50"));
  gated.add("latency_p50_ms", p50.value * (w.opUnit == "s" ? 1e3 : 1.0), "ms",
            p50.samples);
  const Metric& rate = need(std::string(w.throughput));
  gated.add("throughput_per_s", rate.value, "1/s", rate.samples);
  return gated;
}

ChildResult readResult(const std::string& path) {
  std::istringstream in(readFile(path));
  ChildResult r;
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "attempted") {
      fields >> r.attempted;
    } else if (kind == "failed") {
      fields >> r.failed;
    } else if (kind == "metric") {
      std::string section;
      Metric m;
      fields >> section >> m.name >> m.unit >> m.samples >> m.value;
      (section == "run" ? r.run : section == "traced" ? r.traced : r.layer)
          .metrics.push_back(m);
    } else if (kind == "span") {
      SpanRow s;
      fields >> s.name >> s.count >> s.totalSeconds >> s.selfSeconds >>
          s.p50Seconds;
      r.spans.push_back(s);
    }
  }
  return r;
}

/// Start this executable again as the workload's child; returns its exit
/// status. A child past its deadline is killed, so a hang cannot outlive
/// the run.
int runChildProcess(const RunContext& ctx) {
  const std::string self = std::filesystem::read_symlink("/proc/self/exe");
  std::vector<std::string> argv = {self,
                                   "--child",
                                   "--workload",
                                   ctx.workload,
                                   "--dir",
                                   ctx.dir,
                                   "--seed",
                                   std::to_string(ctx.seed),
                                   "--seconds",
                                   std::to_string(ctx.seconds),
                                   "--trace",
                                   ctx.trace ? "1" : "0"};
  if (ctx.smoke) {
    argv.push_back("--smoke");
  }
  std::vector<char*> raw;
  for (std::string& a : argv) {
    raw.push_back(a.data());
  }
  raw.push_back(nullptr);
  pid_t pid = 0;
  if (const int err =
          posix_spawn(&pid, self.c_str(), nullptr, nullptr, raw.data(), environ);
      err != 0) {
    throw std::runtime_error(std::string("cannot start the child: ") +
                             std::strerror(err));
  }
  const auto start = Clock::now();
  int status = 0;
  while (true) {
    const pid_t done = waitpid(pid, &status, WNOHANG);
    if (done == pid) {
      break;
    }
    if (done < 0 && errno != EINTR) {
      throw std::runtime_error("waitpid failed");
    }
    if (secondsSince(start) > kChildDeadlineSeconds) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      throw std::runtime_error("the child ran past its deadline and was killed");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

void printMetrics(std::string_view title, const Measurements& m) {
  if (m.metrics.empty()) {
    return;
  }
  std::cout << "  " << title << '\n';
  for (const Metric& metric : m.metrics) {
    char line[160];
    std::snprintf(line, sizeof line, "    %-34s %14.6g %-9s n=%zu\n",
                  metric.name.c_str(), metric.value, metric.unit.c_str(),
                  metric.samples);
    std::cout << line;
  }
}

void printSpans(const ChildResult& r, std::string_view op) {
  if (r.spans.empty()) {
    return;
  }
  double opSeconds = 0.0;
  for (const SpanRow& s : r.spans) {
    if (s.name == op) {
      opSeconds = s.totalSeconds;
    }
  }
  std::cout << "  spans of the traced half (self time as a share of all '"
            << op << "' time)\n";
  for (const SpanRow& s : r.spans) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "    %-28s n=%-7zu p50 %10.4f ms  self %6.1f%%\n",
                  s.name.c_str(), s.count, s.p50Seconds * 1e3,
                  opSeconds > 0 ? 100.0 * s.selfSeconds / opSeconds : 0.0);
    std::cout << line;
  }
}

/// The last line of a workload's output: the gated metrics, or traced the
/// per-layer ones.
std::string resultJson(const ChildResult& r, const Measurements& metrics) {
  std::ostringstream out;
  util::JsonWriter json(out);
  json.beginObject();
  json.key("correct");
  json.value(true);
  json.key("attempted");
  json.value(r.attempted);
  json.key("failed");
  json.value(r.failed);
  json.key("metrics");
  json.beginObject();
  for (const Metric& m : metrics.metrics) {
    json.key(m.name);
    json.beginObject();
    json.key("value");
    json.value(m.value);
    json.key("unit");
    json.value(m.unit);
    json.endObject();
  }
  json.endObject();
  json.endObject();
  return out.str();
}

/// PREFIX.json: every metric with its sample count, for compare.py.
void writeOut(const std::string& prefix, const RunContext& ctx,
              const ChildResult& r) {
  std::ofstream out(prefix + ".json");
  util::JsonWriter json(out);
  const auto section = [&](const char* key, const Measurements& m) {
    json.key(key);
    json.beginObject();
    for (const Metric& metric : m.metrics) {
      json.key(metric.name);
      json.beginObject();
      json.key("value");
      json.value(metric.value);
      json.key("unit");
      json.value(metric.unit);
      json.key("samples");
      json.value(static_cast<std::uint64_t>(metric.samples));
      json.endObject();
    }
    json.endObject();
  };
  json.beginObject();
  json.key("workload");
  json.value(ctx.workload);
  json.key("seed");
  json.value(ctx.seed);
  json.key("seconds");
  json.value(ctx.seconds);
  json.key("trace");
  json.value(ctx.trace);
  json.key("attempted");
  json.value(r.attempted);
  json.key("failed");
  json.value(r.failed);
  section("metrics", r.run);
  section("gated", r.gated);
  section("traced", r.traced);
  section("per_layer", r.layer);
  json.endObject();
  out << '\n';
  if (ctx.trace) {
    std::filesystem::copy_file(
        ctx.path(kSpansFile), prefix + ".spans.json",
        std::filesystem::copy_options::overwrite_existing);
  }
}

bool runWorkload(const Workload& w, const Args& args) {
  RunContext ctx{std::string(w.name),
                 std::string(kWorkDir) + "/" + std::string(w.name) + "-" +
                     std::to_string(args.seed),
                 args.seed,
                 args.seconds,
                 args.trace,
                 args.smoke,
                 availableCpus()};
  std::filesystem::remove_all(ctx.dir);
  std::filesystem::create_directories(ctx.dir);
  bool ok = false;
  try {
    w.generate(ctx);
    const int status = runChildProcess(ctx);
    if (status != 0) {
      throw std::runtime_error("the workload's child exited with status " +
                               std::to_string(status));
    }
    ChildResult result = readResult(ctx.path(kResultFile));
    std::vector<std::string> problems = w.check(ctx);
    if (result.failed > 0) {
      // The child printed the first few on stderr.
      problems.push_back(std::to_string(result.failed) + " of " +
                         std::to_string(result.attempted) +
                         " operations failed");
    }
    for (const std::string& p : problems) {
      std::cerr << "perfvar_bench: " << w.name << ": check failed: " << p
                << '\n';
    }
    if (problems.empty()) {
      // Always 0 here: any failure stops the run above.
      result.run.add("error_ratio", 0.0, "ratio", result.attempted);
      if (!ctx.trace) {
        result.gated = gatedMetrics(w, result.run);
      }
      const std::string line =
          resultJson(result, ctx.trace ? result.layer : result.gated);
      std::cout << w.name << " (seed " << ctx.seed << ", ";
      if (ctx.smoke) {
        std::cout << "smoke";
      } else {
        std::cout << ctx.seconds << " s";
      }
      std::cout << ", " << ctx.nproc << " CPUs"
                << (ctx.trace ? ", traced" : "") << ")\n";
      printMetrics(ctx.trace ? "untraced half" : "end to end", result.run);
      printMetrics("gated (BENCHMARK.json names)", result.gated);
      printMetrics("traced half", result.traced);
      printSpans(result, w.op);
      printMetrics("per layer", result.layer);
      if (!args.out.empty()) {
        writeOut(args.out, ctx, result);
      }
      std::cout << line << std::endl;
      ok = true;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfvar_bench: " << w.name << ": " << e.what() << '\n';
  }
  std::filesystem::remove_all(ctx.dir);
  return ok;
}

}  // namespace
}  // namespace perfvar::bench

int main(int argc, char** argv) {
  using namespace perfvar::bench;
  Args args;
  if (!parseArgs(argc, argv, args)) {
    return kExitUsage;
  }
  const Workload* only = nullptr;
  if (!args.workload.empty()) {
    only = findWorkload(args.workload);
    if (only == nullptr) {
      std::cerr << "perfvar_bench: unknown workload '" << args.workload
                << "'\n";
      printUsage(std::cerr);
      return kExitUsage;
    }
  }
  if (args.child) {
    if (only == nullptr || args.dir.empty()) {
      std::cerr << "perfvar_bench: --child needs --workload and --dir\n";
      return kExitUsage;
    }
    try {
      return runChild(args, *only);
    } catch (const std::exception& e) {
      std::cerr << "perfvar_bench: " << args.workload << ": " << e.what()
                << '\n';
      return kExitFailed;
    }
  }
  bool ok = true;
  for (const Workload& w : workloads()) {
    if (only == nullptr || only == &w) {
      ok = runWorkload(w, args) && ok;
    }
  }
  return ok ? 0 : kExitFailed;
}
