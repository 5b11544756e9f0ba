#ifndef PERFVAR_LINT_LINT_HPP
#define PERFVAR_LINT_LINT_HPP

/// \file lint.hpp
/// Rule-based static analysis of traces ("perfvar::lint").
///
/// The analysis pipeline silently assumes well-formed inputs: monotone
/// clocks, balanced enter/leave stacks, classifiable synchronization
/// regions, and a dominant function invoked at least 2p times (paper
/// Sections IV-V). A trace violating these either throws mid-pipeline or
/// produces quietly wrong SOS-times. lintTrace() diagnoses such
/// pathologies up front: an extensible set of rules (stable kebab-case
/// ids, Error/Warning/Info severities) runs over the trace and returns
/// every finding as a LintReport.
///
/// Rules come in two flavors. Per-rank checks (Rule::checkProcess) run
/// over each process stream and are sharded across a util::ThreadPool
/// when LintOptions::threads != 1; whole-trace checks (Rule::checkTrace)
/// run serially on the calling thread afterwards. The built-in rules read
/// each rank once, in one fold that checks the six per-rank rules and
/// takes the TraceCensus the whole-trace ones reduce; a custom per-rank
/// rule reads the same pin. Findings are merged deterministically —
/// per-rank findings in ascending rank order, each rank's findings sorted
/// by event index (ties in registry order), global findings appended in
/// registry order — so the report is byte-identical for every thread count
/// (the same discipline as analyzeTrace, see analysis/pipeline.hpp).
///
/// Global rules read the analysis stages from a StageSource:
/// AnalysisEngine::lintReport() passes the engine, so lint and a report
/// share one cached copy of each stage.
///
/// Robustness contract: lintTrace() never throws on hostile trace
/// content. Every rule invocation is guarded; a rule that throws is
/// reported as a finding on the rule itself instead of propagating.
///
/// trace::validate() is subsumed: it forwards to this engine with the
/// five structural rules enabled and returns the identical issues the
/// historical single-pass implementation produced.

#include <cstdint>
#include <exception>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/depgraph.hpp"
#include "analysis/dominant.hpp"
#include "analysis/export.hpp"
#include "analysis/sync.hpp"
#include "trace/trace.hpp"
#include "trace/view.hpp"

namespace perfvar::util {
class ThreadPool;
}

namespace perfvar::lint {

/// Severity of one finding; ordered (Info < Warning < Error).
enum class Severity : std::uint8_t {
  Info = 0,     ///< stylistic / informational (analysis still sound)
  Warning = 1,  ///< analysis runs but results may mislead
  Error = 2,    ///< structural damage; the pipeline will throw or lie
};

/// Stable lowercase name of a severity ("info", "warning", "error").
const char* severityName(Severity s);

/// Parse a severityName(); throws perfvar::Error for unknown names.
Severity severityFromName(const std::string& name);

/// One problem found by a lint rule.
struct Finding {
  std::string rule;     ///< stable kebab-case rule id
  Severity severity = Severity::Warning;
  std::int64_t process = -1;     ///< failing process, -1 = whole trace
  std::int64_t eventIndex = -1;  ///< event in the process stream, -1 = none
  std::string message;

  bool operator==(const Finding& other) const = default;
};

/// Options of lintTrace().
struct LintOptions {
  /// Worker threads of the per-rank rule phase: 1 (default) runs inline,
  /// 0 = hardware concurrency. The report is byte-identical for every
  /// value (see the determinism note in the file comment).
  std::size_t threads = 1;
  /// Optional external pool; overrides `threads` when set.
  util::ThreadPool* pool = nullptr;

  /// Per-rule-ID suppression: rules whose id appears here are skipped.
  std::vector<std::string> disabledRules;
  /// When non-empty, run only these rule ids (still minus disabledRules).
  std::vector<std::string> onlyRules;
  /// Findings below this severity are dropped at the source.
  Severity minSeverity = Severity::Info;
  /// Keep at most this many findings per rule (in report order); the
  /// overflow count is recorded in LintReport::truncated. 0 = unlimited.
  std::size_t maxFindingsPerRule = 1000;

  /// The `2` of the paper's ">= 2p invocations" dominant-function bound
  /// (dominant-eligibility rule).
  std::uint64_t invocationMultiplier = 2;
  /// Classifier the SOS pipeline will use (sync-coverage and
  /// dominant-eligibility rules; also the dependency-graph rules' notion
  /// of a wait region).
  analysis::SyncClassifier sync{};

  /// Thresholds of the serialization-bottleneck / critical-path-dominance
  /// rules (see analysis/depgraph.hpp).
  analysis::SerializationOptions serialization{};
  /// Thresholds of the idle-wave-propagation rule.
  analysis::IdleWaveOptions idleWave{};
};

/// A rule that produced more findings than LintOptions::maxFindingsPerRule.
struct TruncatedRule {
  std::string rule;
  std::uint64_t dropped = 0;

  bool operator==(const TruncatedRule& other) const = default;
};

/// Complete result of one lintTrace() run.
struct LintReport {
  std::vector<Finding> findings;       ///< deterministic report order
  std::vector<std::string> rulesRun;   ///< executed rule ids, registry order
  std::vector<TruncatedRule> truncated;
  std::size_t processCount = 0;

  bool clean() const { return findings.empty(); }
  /// Number of findings of exactly severity `s`.
  std::size_t count(Severity s) const;
  /// Number of findings of severity `s` or worse.
  std::size_t countAtLeast(Severity s) const;
  bool hasAtLeast(Severity s) const { return countAtLeast(s) > 0; }
};

class RuleContext;

/// Destination for a rule's findings. The engine constructs one sink per
/// (rule, process) in the per-rank phase and one per rule in the global
/// phase; the sink applies LintOptions::minSeverity filtering. It views
/// the rule id (which must outlive the sink) and copies it only into a
/// reported finding.
class Sink {
public:
  Sink(std::string_view ruleId, std::int64_t process, Severity minSeverity,
       std::vector<Finding>& out)
      : ruleId_(ruleId),
        process_(process),
        minSeverity_(minSeverity),
        out_(out) {}

  /// Finding tied to one event of this sink's process.
  void reportAt(Severity severity, std::size_t eventIndex,
                std::string message);
  /// Finding about this sink's whole process (whole trace in the global
  /// phase).
  void report(Severity severity, std::string message);
  /// Finding about a specific process; for global-phase rules that blame
  /// individual ranks (e.g. quarantine-interaction).
  void reportProcess(Severity severity, trace::ProcessId process,
                     std::string message);

private:
  std::string_view ruleId_;
  std::int64_t process_;
  Severity minSeverity_;
  std::vector<Finding>& out_;
};

struct FoldFinding;

/// One rank's events in the per-rank phase. The first events() call pins
/// the rank; the census fold and every rule of the phase read that one
/// pin, so the phase pins each rank once. A pin that throws rethrows its
/// error on every events() call, so each rule that reads the events (or
/// the fold's findings) aborts as if it had pinned itself, and a rule
/// that never reads them is unaffected. Used by one thread at a time.
class RankEvents {
public:
  RankEvents(const trace::TraceView& trace, trace::ProcessId p)
      : trace_(trace), process_(p) {}

  trace::ProcessId process() const { return process_; }
  /// The rank's time-sorted events; throws what TraceView::rank() threw.
  trace::EventSpan events() const;

private:
  friend class CensusBuilder;

  const trace::TraceView& trace_;
  trace::ProcessId process_;
  mutable std::optional<trace::RankPin> pin_;
  mutable std::exception_ptr error_;
  /// The census fold's findings on this rank (lint/census.hpp).
  const std::vector<FoldFinding>* fold_ = nullptr;
};

/// Per-rank tallies of the trace's events for the whole-trace rules that
/// declare Rule::readsCensus(). lintTrace() takes them in the parallel
/// per-rank phase, in the fold over each RankEvents pin that also checks
/// the per-rank rules, so such a rule reduces the census instead of
/// pinning every rank again. Records are stored flat, one contiguous
/// slice per rank, and only for what a rank touches. A rank whose pin
/// threw keeps the error instead of records.
class TraceCensus {
public:
  /// Valid messages between a rank and one peer (peer < processCount()
  /// and peer != rank; message-endpoints reports the others).
  struct Channel {
    trace::ProcessId peer = 0;
    std::uint64_t sends = 0;  ///< MpiSend events of the rank to `peer`
    std::uint64_t recvs = 0;  ///< MpiRecv events of the rank from `peer`
  };
  /// One defined function that an Enter or Leave of the rank references.
  struct Invocations {
    trace::FunctionId function = 0;
    /// Completed outermost invocations under trace::replayEventsWith's
    /// pairing: the size of the rank's analysis::extractSegments row.
    std::uint64_t outermost = 0;
  };

  std::size_t processCount() const { return ranks_.size(); }

  /// Rank p's channels by ascending peer; rethrows p's pin error.
  std::span<const Channel> channels(trace::ProcessId p) const;
  /// Rank p's referenced functions by ascending id; rethrows p's pin
  /// error.
  std::span<const Invocations> functions(trace::ProcessId p) const;
  /// Completed outermost invocations of `f` on rank p (0 when the rank
  /// completes none); rethrows p's pin error or, when the rank's stream
  /// does not replay (unbalanced stack), the replay's error.
  std::uint64_t outermostInvocations(trace::ProcessId p,
                                     trace::FunctionId f) const;

private:
  friend class CensusBuilder;

  /// Where a rank's records sit in channels_ and functions_, or why the
  /// rank has none.
  struct Rank {
    std::size_t channelBegin = 0;
    std::size_t functionBegin = 0;
    std::uint32_t channelCount = 0;
    std::uint32_t functionCount = 0;
    std::exception_ptr error;  ///< the pin's or else the replay's error
    bool pinFailed = false;
  };
  /// Rank p; rethrows p's pin error.
  const Rank& pinned(trace::ProcessId p) const;

  std::vector<Channel> channels_;
  std::vector<Invocations> functions_;
  std::vector<Rank> ranks_;
};

/// One diagnostic rule. Implementations must be stateless const objects:
/// checkProcess() is called concurrently for distinct ranks.
class Rule {
public:
  virtual ~Rule() = default;

  /// Stable kebab-case identifier (lowercase letters, digits, '-').
  virtual std::string_view id() const = 0;
  /// One-line description (the docs/LINT.md reference table).
  virtual std::string_view description() const = 0;

  /// Per-rank check over one process stream, read through `rank` (rules
  /// do not pin the rank themselves). Called concurrently for different
  /// ranks; must not touch shared mutable state and must not use the
  /// RuleContext's stages (dominantOrNull etc.).
  virtual void checkProcess(const RuleContext& context, const RankEvents& rank,
                            Sink& sink) const;
  /// Whole-trace check; runs serially after the per-rank phase and may
  /// use every RuleContext helper.
  virtual void checkTrace(const RuleContext& context, Sink& sink) const;
  /// True when the rule reads the census fold (RuleContext::census(), or
  /// the fold's findings for the built-in per-rank rules). lintTrace()
  /// folds the ranks only when an enabled rule returns true.
  virtual bool readsCensus() const { return false; }
};

/// Where a lint run's global rules get the analysis stages. A stage that
/// cannot be built throws. AnalysisEngine serves them from its cache.
class StageSource {
public:
  /// The trace the analysis pipeline runs on (the dropQuarantined view
  /// of a degraded input); null when every rank is quarantined.
  virtual const trace::TraceView* analysisTrace() = 0;
  /// Stages of analysisTrace() under `options`; asked only when it is
  /// non-null.
  virtual std::shared_ptr<const analysis::DominantSelection> dominant(
      const analysis::DominantOptions& options) = 0;
  virtual std::shared_ptr<const analysis::DepAnalysis> depAnalysis(
      const analysis::DepAnalysisOptions& options) = 0;

protected:
  ~StageSource() = default;
};

/// Shared state handed to rules. The stages come from the run's
/// StageSource, each asked for at most once per run (a throw reads as
/// null), and are for the serial global phase only, like the census.
class RuleContext {
public:
  /// `census` is filled by the per-rank phase before the global phase
  /// reads it; null when no enabled rule reads it.
  RuleContext(const trace::TraceView& trace, const LintOptions& options,
              StageSource& stages, const TraceCensus* census);

  RuleContext(const RuleContext&) = delete;
  RuleContext& operator=(const RuleContext&) = delete;

  const trace::TraceView& trace() const { return view_; }
  const LintOptions& options() const { return options_; }

  /// StageSource::analysisTrace(). Global phase only.
  const trace::TraceView* analysisTrace() const {
    return stages_.analysisTrace();
  }
  /// Dominant ranking under options() on analysisTrace(), or null when it
  /// cannot be built (malformed streams, fully-quarantined trace).
  const analysis::DominantSelection* dominantOrNull() const;
  /// Cross-rank dependency analysis (critical path, serialization,
  /// idle waves) of analysisTrace() under options(), shared by the three
  /// dependency rules. Null when there is no analyzable trace.
  const analysis::DepAnalysis* depAnalysisOrNull() const;
  /// The per-rank census of trace(). Global phase only; throws
  /// perfvar::Error when no enabled rule declares Rule::readsCensus().
  const TraceCensus& census() const;

private:
  trace::TraceView view_;
  const LintOptions& options_;
  StageSource& stages_;
  const TraceCensus* census_;
  mutable std::optional<std::shared_ptr<const analysis::DominantSelection>>
      dominant_;
  mutable std::optional<std::shared_ptr<const analysis::DepAnalysis>>
      depAnalysis_;
};

/// Ordered collection of rules. Copy RuleRegistry::builtin() and add()
/// custom rules to extend the engine; registry order is report order for
/// tied findings, so it is part of the determinism contract.
class RuleRegistry {
public:
  RuleRegistry() = default;

  /// Register a rule; its id must be unique, non-empty kebab-case.
  void add(std::shared_ptr<const Rule> rule);

  /// Rule by id, or null.
  const Rule* find(std::string_view id) const;

  const std::vector<std::shared_ptr<const Rule>>& rules() const {
    return rules_;
  }

  /// The built-in rules (see docs/LINT.md for the reference table), in
  /// their fixed registry order.
  static const RuleRegistry& builtin();

private:
  std::vector<std::shared_ptr<const Rule>> rules_;
};

/// Run every enabled rule of `registry` over `trace`. Never throws on
/// trace *content*; throws perfvar::Error only for caller mistakes
/// (unknown rule ids in onlyRules/disabledRules are reported as Info
/// findings, not errors, so suppression lists stay forward-compatible).
/// Global rules read their stages from `stages`; null builds them for
/// this run only, on the run's pool.
LintReport lintTrace(const trace::TraceView& trace, const LintOptions& options = {},
                     const RuleRegistry& registry = RuleRegistry::builtin(),
                     StageSource* stages = nullptr);
LintReport lintTrace(trace::Trace&&, const LintOptions& = {},
                     const RuleRegistry& = RuleRegistry::builtin(),
                     StageSource* = nullptr) = delete;

/// Human-readable report: one line per finding plus a summary footer.
/// Deterministic byte-for-byte function of the report.
std::string formatLintReport(const LintReport& report);

/// Render a lint report through the unified export path. Supported
/// formats: Text (formatLintReport), Json, Csv (one row per finding);
/// the analysis-specific CSV variants throw.
void exportLintReport(const LintReport& report, analysis::ExportFormat format,
                      std::ostream& out);

/// Convenience string wrapper.
std::string exportLintReportString(const LintReport& report,
                                   analysis::ExportFormat format);

/// One problem found by validateStructure().
struct ValidationIssue {
  trace::ProcessId process = 0;
  std::size_t eventIndex = 0;  ///< index into the process event stream
  std::string message;
};

/// Structural validation: runs exactly the five structural rules
/// (clock-monotonicity, stack-balance, undefined-function-ref,
/// undefined-metric-ref, message-endpoints) and returns every finding as
/// a ValidationIssue (empty == valid). This is the successor of the
/// removed trace::validate(), with identical issue order and messages.
std::vector<ValidationIssue> validateStructure(const trace::TraceView& trace);
std::vector<ValidationIssue> validateStructure(trace::Trace&&) = delete;

/// Convenience: throws perfvar::Error listing the first issues when the
/// trace is not structurally valid (successor of trace::requireValid()).
void requireStructurallyValid(const trace::TraceView& trace);
void requireStructurallyValid(trace::Trace&&) = delete;

}  // namespace perfvar::lint

#endif  // PERFVAR_LINT_LINT_HPP
