#include "lint/lint.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>

#include "lint/census.hpp"
#include "profile/profile.hpp"
#include "util/error.hpp"
#include "util/json_writer.hpp"
#include "util/thread_pool.hpp"

namespace perfvar::lint {

const char* severityName(Severity s) {
  switch (s) {
    case Severity::Info:
      return "info";
    case Severity::Warning:
      return "warning";
    case Severity::Error:
      return "error";
  }
  return "unknown";
}

Severity severityFromName(const std::string& name) {
  if (name == "info") {
    return Severity::Info;
  }
  if (name == "warning") {
    return Severity::Warning;
  }
  if (name == "error") {
    return Severity::Error;
  }
  PERFVAR_REQUIRE(false, "unknown severity name '" + name +
                             "' (expected info, warning or error)");
}

std::size_t LintReport::count(Severity s) const {
  std::size_t n = 0;
  for (const Finding& f : findings) {
    n += f.severity == s ? 1 : 0;
  }
  return n;
}

std::size_t LintReport::countAtLeast(Severity s) const {
  std::size_t n = 0;
  for (const Finding& f : findings) {
    n += f.severity >= s ? 1 : 0;
  }
  return n;
}

void Sink::reportAt(Severity severity, std::size_t eventIndex,
                    std::string message) {
  if (severity < minSeverity_) {
    return;
  }
  out_.push_back(Finding{std::string(ruleId_), severity, process_,
                         static_cast<std::int64_t>(eventIndex),
                         std::move(message)});
}

void Sink::report(Severity severity, std::string message) {
  if (severity < minSeverity_) {
    return;
  }
  out_.push_back(Finding{std::string(ruleId_), severity, process_, -1,
                         std::move(message)});
}

void Sink::reportProcess(Severity severity, trace::ProcessId process,
                         std::string message) {
  if (severity < minSeverity_) {
    return;
  }
  out_.push_back(Finding{std::string(ruleId_), severity,
                         static_cast<std::int64_t>(process), -1,
                         std::move(message)});
}

trace::EventSpan RankEvents::events() const {
  if (error_) {
    std::rethrow_exception(error_);
  }
  if (!pin_) {
    try {
      pin_ = trace_.rank(process_);
    } catch (...) {
      error_ = std::current_exception();
      throw;
    }
  }
  return pin_->events();
}

void Rule::checkProcess(const RuleContext&, const RankEvents&, Sink&) const {}

void Rule::checkTrace(const RuleContext&, Sink&) const {}

RuleContext::RuleContext(const trace::TraceView& trace,
                         const LintOptions& options, StageSource& stages,
                         const TraceCensus* census)
    : view_(trace), options_(options), stages_(stages), census_(census) {}

const TraceCensus& RuleContext::census() const {
  PERFVAR_REQUIRE(census_ != nullptr,
                  "lint census not taken: no enabled rule declares "
                  "Rule::readsCensus()");
  return *census_;
}

namespace {

/// Ask for a stage of the analysis trace `tr` once; no trace or a stage
/// that throws (malformed streams; the structural rules report them) is
/// remembered as null.
template <typename T, typename Ask>
const T* askOnce(std::optional<std::shared_ptr<const T>>& memo,
                 const trace::TraceView* tr, Ask&& ask) {
  if (!memo) {
    try {
      memo = tr != nullptr ? ask() : nullptr;
    } catch (const std::exception&) {
      memo = nullptr;
    }
  }
  return memo->get();
}

}  // namespace

const analysis::DominantSelection* RuleContext::dominantOrNull() const {
  return askOnce(dominant_, analysisTrace(), [&] {
    analysis::DominantOptions dopts;
    dopts.invocationMultiplier = options_.invocationMultiplier;
    dopts.excludeSynchronization = true;
    dopts.syncClassifier = options_.sync;
    return stages_.dominant(dopts);
  });
}

const analysis::DepAnalysis* RuleContext::depAnalysisOrNull() const {
  return askOnce(depAnalysis_, analysisTrace(), [&] {
    analysis::DepAnalysisOptions dopts;
    dopts.sync = options_.sync;
    dopts.serialization = options_.serialization;
    dopts.idleWave = options_.idleWave;
    return stages_.depAnalysis(dopts);
  });
}

namespace {

/// The StageSource of a standalone lintTrace(). The global phase runs
/// outside every range body, so the stages may reuse the per-rank pool.
class RunStages final : public StageSource {
public:
  RunStages(const trace::TraceView& trace, util::ThreadPool* pool)
      : pool_(pool) {
    try {
      analysisTrace_ = trace.dropQuarantined();
    } catch (const std::exception&) {
      // every rank quarantined: nothing analyzable
    }
  }

  const trace::TraceView* analysisTrace() override {
    return analysisTrace_ ? &*analysisTrace_ : nullptr;
  }

  std::shared_ptr<const analysis::DominantSelection> dominant(
      const analysis::DominantOptions& options) override {
    const trace::TraceView& tr = *analysisTrace();
    profile_.emplace(profile::FlatProfile::build(tr, pool_));
    return std::make_shared<const analysis::DominantSelection>(
        analysis::selectDominantFunction(tr, *profile_, options));
  }

  std::shared_ptr<const analysis::DepAnalysis> depAnalysis(
      const analysis::DepAnalysisOptions& options) override {
    analysis::DepAnalysisOptions onPool = options;
    onPool.pool = pool_;
    return std::make_shared<const analysis::DepAnalysis>(
        analysis::analyzeDependencies(*analysisTrace(), onPool));
  }

private:
  util::ThreadPool* pool_;
  std::optional<trace::TraceView> analysisTrace_;
  // Lives as long as the run: freed before the dependency graph is built,
  // it leaves a heap hole that raised a 100-report run's peak RSS by 6%.
  std::optional<profile::FlatProfile> profile_;
};

}  // namespace

void RuleRegistry::add(std::shared_ptr<const Rule> rule) {
  PERFVAR_REQUIRE(rule != nullptr, "null lint rule");
  const std::string_view id = rule->id();
  PERFVAR_REQUIRE(!id.empty(), "empty lint rule id");
  for (const char c : id) {
    PERFVAR_REQUIRE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                        c == '-',
                    "lint rule id '" + std::string(id) +
                        "' is not kebab-case ([a-z0-9-])");
  }
  PERFVAR_REQUIRE(find(id) == nullptr,
                  "duplicate lint rule id '" + std::string(id) + "'");
  rules_.push_back(std::move(rule));
}

const Rule* RuleRegistry::find(std::string_view id) const {
  for (const auto& rule : rules_) {
    if (rule->id() == id) {
      return rule.get();
    }
  }
  return nullptr;
}

namespace {

bool contains(const std::vector<std::string>& names, std::string_view id) {
  return std::find(names.begin(), names.end(), id) != names.end();
}

/// Per-rank findings ordering: by event index (whole-process findings with
/// index -1 first, end-of-stream findings last because they carry index ==
/// events.size()), ties in rule registry order. stable_sort keeps the
/// per-rule emission order for findings at the same event.
void sortRankFindings(std::vector<Finding>& findings,
                      const std::vector<std::size_t>& ruleOrder,
                      const std::vector<std::size_t>& findingRule) {
  std::vector<std::size_t> idx(findings.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    idx[i] = i;
  }
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (findings[a].eventIndex != findings[b].eventIndex) {
                       return findings[a].eventIndex < findings[b].eventIndex;
                     }
                     return ruleOrder[findingRule[a]] <
                            ruleOrder[findingRule[b]];
                   });
  std::vector<Finding> sorted;
  sorted.reserve(findings.size());
  for (const std::size_t i : idx) {
    sorted.push_back(std::move(findings[i]));
  }
  findings = std::move(sorted);
}

}  // namespace

LintReport lintTrace(const trace::TraceView& trace, const LintOptions& options,
                     const RuleRegistry& registry, StageSource* stages) {
  LintReport report;
  report.processCount = trace.processCount();

  // Resolve the enabled rule list (registry order). Unknown ids in the
  // suppression lists become Info findings instead of hard errors so that
  // a config naming a since-renamed rule still lints.
  std::vector<const Rule*> enabled;
  for (const auto& rule : registry.rules()) {
    if (contains(options.disabledRules, rule->id())) {
      continue;
    }
    if (!options.onlyRules.empty() && !contains(options.onlyRules, rule->id())) {
      continue;
    }
    enabled.push_back(rule.get());
    report.rulesRun.emplace_back(rule->id());
  }
  std::vector<Finding> configFindings;
  if (options.minSeverity <= Severity::Info) {
    for (const auto& names :
         {&options.disabledRules, &options.onlyRules}) {
      for (const std::string& name : *names) {
        if (registry.find(name) == nullptr) {
          configFindings.push_back(
              Finding{"lint-config", Severity::Info, -1, -1,
                      "unknown rule id '" + name + "' in " +
                          (names == &options.disabledRules ? "disabledRules"
                                                           : "onlyRules")});
        }
      }
    }
  }

  std::unique_ptr<util::ThreadPool> owned;
  util::ThreadPool* pool =
      util::resolvePool(options.pool, options.threads, owned);
  std::optional<RunStages> runStages;
  // The census is taken only when an enabled rule reads it.
  TraceCensus census;
  std::optional<CensusBuilder> censusBuilder;
  if (std::any_of(enabled.begin(), enabled.end(),
                  [](const Rule* rule) { return rule->readsCensus(); })) {
    censusBuilder.emplace(trace, census);
  }
  RuleContext context(trace, options,
                      stages != nullptr ? *stages
                                        : runStages.emplace(trace, pool),
                      censusBuilder ? &census : nullptr);
  const std::size_t processCount = trace.processCount();

  // Registry position of each enabled rule, for deterministic tie-breaks.
  std::vector<std::size_t> ruleOrder(enabled.size());
  for (std::size_t r = 0; r < enabled.size(); ++r) {
    ruleOrder[r] = r;
  }

  // Per-rank phase: every task writes only its own rank's slot, so the
  // merged result is independent of the thread count. The census reads
  // the same pin as the rules.
  std::vector<std::vector<Finding>> perRank(processCount);
  const auto checkRank = [&](const RankEvents& rank) {
    const std::size_t p = rank.process();
    std::vector<Finding>& out = perRank[p];
    std::vector<std::size_t> findingRule;  // parallel to `out`
    for (std::size_t r = 0; r < enabled.size(); ++r) {
      const Rule* rule = enabled[r];
      Sink sink(rule->id(), static_cast<std::int64_t>(p),
                options.minSeverity, out);
      try {
        rule->checkProcess(context, rank, sink);
      } catch (const std::exception& e) {
        // Robustness contract: a throwing rule becomes a finding, never a
        // crash of the lint run itself.
        out.push_back(Finding{std::string(rule->id()), Severity::Warning,
                              static_cast<std::int64_t>(p), -1,
                              std::string("rule aborted: ") + e.what()});
      }
      findingRule.resize(out.size(), r);
    }
    sortRankFindings(out, ruleOrder, findingRule);
  };

  util::parallelChunks(
      pool, processCount, [&](std::size_t begin, std::size_t end) {
        std::optional<CensusBuilder::Tally> tally;
        if (censusBuilder) {
          tally.emplace(*censusBuilder);
        }
        for (std::size_t p = begin; p < end; ++p) {
          const RankEvents rank(trace, static_cast<trace::ProcessId>(p));
          checkRank(rank);
          if (tally) {
            tally->add(rank);
          }
        }
      });

  for (std::size_t p = 0; p < processCount; ++p) {
    for (Finding& f : perRank[p]) {
      report.findings.push_back(std::move(f));
    }
  }

  // Global phase: serial, registry order, appended after rank findings.
  for (const Rule* rule : enabled) {
    Sink sink(rule->id(), -1, options.minSeverity, report.findings);
    try {
      rule->checkTrace(context, sink);
    } catch (const std::exception& e) {
      report.findings.push_back(Finding{std::string(rule->id()),
                                        Severity::Warning, -1, -1,
                                        std::string("rule aborted: ") +
                                            e.what()});
    }
  }
  for (Finding& f : configFindings) {
    report.findings.push_back(std::move(f));
  }

  // Cap findings per rule, keeping the first maxFindingsPerRule in report
  // order and recording how many were dropped.
  if (options.maxFindingsPerRule != 0) {
    std::map<std::string, std::uint64_t> kept;
    std::map<std::string, std::uint64_t> dropped;
    std::vector<Finding> capped;
    capped.reserve(report.findings.size());
    for (Finding& f : report.findings) {
      if (kept[f.rule] < options.maxFindingsPerRule) {
        ++kept[f.rule];
        capped.push_back(std::move(f));
      } else {
        ++dropped[f.rule];
      }
    }
    report.findings = std::move(capped);
    for (const auto& [rule, n] : dropped) {
      report.truncated.push_back(TruncatedRule{rule, n});
    }
  }

  return report;
}

namespace {

std::string findingLocation(const Finding& f) {
  std::ostringstream os;
  if (f.process < 0) {
    os << "trace";
  } else {
    os << "process " << f.process;
    if (f.eventIndex >= 0) {
      os << ", event " << f.eventIndex;
    }
  }
  return os.str();
}

}  // namespace

std::string formatLintReport(const LintReport& report) {
  std::ostringstream os;
  os << "lint: " << report.rulesRun.size() << " rule(s), "
     << report.processCount << " process(es)\n";
  for (const Finding& f : report.findings) {
    os << severityName(f.severity) << " [" << f.rule << "] "
       << findingLocation(f) << ": " << f.message << '\n';
  }
  for (const TruncatedRule& t : report.truncated) {
    os << "note: [" << t.rule << "] " << t.dropped
       << " further finding(s) suppressed (maxFindingsPerRule)\n";
  }
  if (report.clean()) {
    os << "no findings\n";
  } else {
    os << report.count(Severity::Error) << " error(s), "
       << report.count(Severity::Warning) << " warning(s), "
       << report.count(Severity::Info) << " info\n";
  }
  return os.str();
}

namespace {

void writeLintJson(const LintReport& report, std::ostream& out) {
  util::JsonWriter w(out);
  w.beginObject();
  w.key("lint");
  w.beginObject();
  w.key("processes");
  w.value(static_cast<std::uint64_t>(report.processCount));
  w.key("rules");
  w.beginArray();
  for (const std::string& id : report.rulesRun) {
    w.value(id);
  }
  w.endArray();
  w.key("counts");
  w.beginObject();
  w.key("error");
  w.value(static_cast<std::uint64_t>(report.count(Severity::Error)));
  w.key("warning");
  w.value(static_cast<std::uint64_t>(report.count(Severity::Warning)));
  w.key("info");
  w.value(static_cast<std::uint64_t>(report.count(Severity::Info)));
  w.endObject();
  w.key("findings");
  w.beginArray();
  for (const Finding& f : report.findings) {
    w.beginObject();
    w.key("rule");
    w.value(f.rule);
    w.key("severity");
    w.value(std::string(severityName(f.severity)));
    w.key("process");
    w.value(static_cast<std::int64_t>(f.process));
    w.key("event");
    w.value(static_cast<std::int64_t>(f.eventIndex));
    w.key("message");
    w.value(f.message);
    w.endObject();
  }
  w.endArray();
  if (!report.truncated.empty()) {
    w.key("truncated");
    w.beginArray();
    for (const TruncatedRule& t : report.truncated) {
      w.beginObject();
      w.key("rule");
      w.value(t.rule);
      w.key("dropped");
      w.value(t.dropped);
      w.endObject();
    }
    w.endArray();
  }
  w.endObject();
  w.endObject();
  out << '\n';
}

std::string csvQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    out += c;
    if (c == '"') {
      out += '"';
    }
  }
  out += '"';
  return out;
}

void writeLintCsv(const LintReport& report, std::ostream& out) {
  out << "severity,rule,process,event,message\n";
  for (const Finding& f : report.findings) {
    out << severityName(f.severity) << ',' << f.rule << ',' << f.process << ','
        << f.eventIndex << ',' << csvQuote(f.message) << '\n';
  }
}

}  // namespace

void exportLintReport(const LintReport& report, analysis::ExportFormat format,
                      std::ostream& out) {
  switch (format) {
    case analysis::ExportFormat::Text:
      out << formatLintReport(report);
      return;
    case analysis::ExportFormat::Json:
      writeLintJson(report, out);
      return;
    case analysis::ExportFormat::Csv:
      writeLintCsv(report, out);
      return;
    case analysis::ExportFormat::CsvIterations:
    case analysis::ExportFormat::CsvHotspots:
      break;
  }
  PERFVAR_REQUIRE(false, "unsupported ExportFormat for lint reports "
                         "(use text, json or csv)");
}

std::string exportLintReportString(const LintReport& report,
                                   analysis::ExportFormat format) {
  std::ostringstream os;
  exportLintReport(report, format, os);
  return os.str();
}

}  // namespace perfvar::lint
