/// Lint engine tests: rule-by-rule triggering, the determinism guarantee
/// (byte-identical reports at 1/2/8 threads), options handling
/// (suppression, severity floor, truncation), renderers, the structural
/// forwarder equivalence, and the engine's lint-on-load gate.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/cosmo_specs.hpp"
#include "engine/engine.hpp"
#include "lint/lint.hpp"
#include "sim/simulator.hpp"
#include "trace/binary_io.hpp"
#include "trace/builder.hpp"
#include "trace/fault_injection.hpp"
#include "trace/trace.hpp"
#include "trace/view.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace perfvar::lint {
namespace {

using trace::Event;
using trace::Trace;

/// Rule ids of all findings, in report order.
std::vector<std::string> ruleIds(const LintReport& report) {
  std::vector<std::string> ids;
  for (const Finding& f : report.findings) {
    ids.push_back(f.rule);
  }
  return ids;
}

bool hasRule(const LintReport& report, const std::string& rule) {
  const auto ids = ruleIds(report);
  return std::find(ids.begin(), ids.end(), rule) != ids.end();
}

/// Options running a single rule in isolation.
LintOptions only(const std::string& rule) {
  LintOptions options;
  options.onlyRules = {rule};
  return options;
}

/// A structurally clean 4-rank trace with messages, metrics and a
/// dominant function (8 invocations per rank >= 2 * 4 ranks).
Trace cleanTrace() {
  trace::TraceBuilder b(4);
  const auto work = b.defineFunction("work", "APP");
  const auto send = b.defineFunction("MPI_Send", "MPI", trace::Paradigm::MPI);
  const auto m = b.defineMetric("cycles", "count");
  for (trace::ProcessId p = 0; p < 4; ++p) {
    trace::Timestamp t = 10 * (p + 1);
    for (std::size_t it = 0; it < 8; ++it) {
      b.enter(p, t, work);
      t += 50 + p;
      b.metric(p, t, m, static_cast<double>(it));
      b.enter(p, t, send);
      const auto peer = static_cast<trace::ProcessId>((p + 1) % 4);
      b.mpiSend(p, t + 1, peer, 0, 64);
      const auto src = static_cast<trace::ProcessId>((p + 3) % 4);
      b.mpiRecv(p, t + 2, src, 0, 64);
      t += 10;
      b.leave(p, t, send);
      t += 5;
      b.leave(p, t, work);
      t += 3;
    }
  }
  return b.finish();
}

/// A trace violating many rules at once, spread over several ranks, used
/// by the determinism tests. Built by hand: TraceBuilder refuses most of
/// these pathologies.
Trace dirtyTrace(std::size_t ranks = 8) {
  Trace tr;
  const auto f = tr.functions.intern("f", "APP");
  const auto g = tr.functions.intern("g", "APP");
  tr.functions.intern("never-called", "APP");
  tr.functions.intern("MPI_Wait", "APP");  // wrong paradigm: sync-coverage
  tr.metrics.intern("cycles", "count");
  for (std::size_t p = 0; p < ranks; ++p) {
    trace::ProcessTrace proc;
    proc.name = "Rank " + std::to_string(p);
    proc.events.push_back(Event::enter(10, f));
    proc.events.push_back(Event::enter(20, g));
    proc.events.push_back(Event::leave(20, g));     // zero-duration
    proc.events.push_back(Event::leave(15, f));     // timestamp decreases
    proc.events.push_back(Event::enter(30, 99));    // undefined function
    proc.events.push_back(Event::leave(35, g));     // mismatched leave
    proc.events.push_back(Event::metric(40, 7, 1)); // undefined metric
    proc.events.push_back(
        Event::mpiSend(45, static_cast<trace::ProcessId>(p), 0, 8));  // self
    proc.events.push_back(Event::mpiSend(50, 1000, 0, 8));  // bad peer
    proc.events.push_back(Event::enter(60, f));     // left unclosed
    tr.processes.push_back(std::move(proc));
  }
  return tr;
}

// ---- clean traces ----------------------------------------------------------

TEST(Lint, CleanTraceHasNoFindings) {
  const Trace tr = cleanTrace();
  const LintReport report = lintTrace(tr);
  EXPECT_TRUE(report.clean()) << formatLintReport(report);
  EXPECT_EQ(report.processCount, 4u);
  EXPECT_EQ(report.rulesRun.size(),
            RuleRegistry::builtin().rules().size());
}

TEST(Lint, CleanScenarioTraceHasNoFindings) {
  apps::CosmoSpecsConfig cfg;
  cfg.gridX = 4;
  cfg.gridY = 4;
  cfg.timesteps = 12;
  const auto scenario = apps::buildCosmoSpecs(cfg);
  const Trace tr = sim::simulate(scenario.program, scenario.simOptions);
  const LintReport report = lintTrace(tr);
  EXPECT_TRUE(report.clean()) << formatLintReport(report);
}

// ---- per-rule triggering ---------------------------------------------------

TEST(LintRules, ClockMonotonicity) {
  Trace tr;
  const auto f = tr.functions.intern("f");
  tr.processes.push_back(
      {"p0", {Event::enter(10, f), Event::leave(5, f)}});
  const LintReport report = lintTrace(tr);
  ASSERT_TRUE(hasRule(report, "clock-monotonicity"));
  const Finding& finding = report.findings.front();
  EXPECT_EQ(finding.rule, "clock-monotonicity");
  EXPECT_EQ(finding.severity, Severity::Error);
  EXPECT_EQ(finding.process, 0);
  EXPECT_EQ(finding.eventIndex, 1);
  EXPECT_EQ(finding.message, "timestamp decreases");
}

TEST(LintRules, StackBalanceVariants) {
  Trace tr;
  const auto f = tr.functions.intern("f");
  const auto g = tr.functions.intern("g");
  tr.processes.push_back({"p0", {Event::leave(1, f)}});
  tr.processes.push_back(
      {"p1", {Event::enter(1, f), Event::leave(2, g), Event::leave(3, f)}});
  tr.processes.push_back({"p2", {Event::enter(1, f)}});
  const LintReport report = lintTrace(tr, only("stack-balance"));
  ASSERT_EQ(report.findings.size(), 3u);
  EXPECT_EQ(report.findings[0].message, "leave without matching enter");
  EXPECT_EQ(report.findings[1].message,
            "leave of 'g' does not match innermost enter 'f'");
  EXPECT_EQ(report.findings[2].message,
            "1 unclosed enter frame(s), innermost 'f'");
  EXPECT_EQ(report.findings[2].eventIndex, 1);  // == events.size()
}

TEST(LintRules, UndefinedRefsAndEndpoints) {
  Trace tr;
  tr.functions.intern("f");
  tr.metrics.intern("m");
  tr.processes.push_back({"p0",
                          {Event::enter(1, 5), Event::leave(2, 5),
                           Event::metric(3, 9, 1.0), Event::mpiSend(4, 7, 0, 1),
                           Event::mpiRecv(5, 0, 0, 1)}});
  const LintReport report = lintTrace(tr);
  EXPECT_TRUE(hasRule(report, "undefined-function-ref"));
  EXPECT_TRUE(hasRule(report, "undefined-metric-ref"));
  EXPECT_TRUE(hasRule(report, "message-endpoints"));
  // The self-recv at event 4 (process 0 receiving from process 0).
  bool foundSelf = false;
  for (const Finding& f : report.findings) {
    foundSelf |= f.message == "message to/from self";
  }
  EXPECT_TRUE(foundSelf);
}

TEST(LintRules, MessagePairingCountsMismatch) {
  trace::TraceBuilder b(2);
  const auto f = b.defineFunction("work");
  for (trace::ProcessId p = 0; p < 2; ++p) {
    for (int i = 0; i < 4; ++i) {
      b.enter(p, 10 * i + p, f);
      b.leave(p, 10 * i + 5 + p, f);
    }
  }
  b.mpiSend(0, 100, 1, 0, 8);
  b.mpiSend(0, 101, 1, 0, 8);
  b.mpiRecv(1, 102, 0, 0, 8);  // only one of the two sends is received
  const Trace tr = b.finish();
  const LintReport report = lintTrace(tr);
  ASSERT_TRUE(hasRule(report, "message-pairing"));
  bool found = false;
  for (const Finding& finding : report.findings) {
    if (finding.rule == "message-pairing") {
      EXPECT_EQ(finding.message,
                "rank 0 sent 2 message(s) to rank 1, which received 1");
      EXPECT_EQ(finding.severity, Severity::Warning);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LintRules, DefinitionIntegrityUnreferencedFunction) {
  Trace tr = cleanTrace();
  tr.functions.intern("dead-code", "APP");
  const LintReport report = lintTrace(tr);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, "definition-integrity");
  EXPECT_EQ(report.findings[0].severity, Severity::Info);
  EXPECT_NE(report.findings[0].message.find("dead-code"), std::string::npos);
}

TEST(LintRules, SyncCoverageFlagsMisparadigmedNames) {
  Trace tr = cleanTrace();
  // An MPI-named function with Compute paradigm: the Paradigm classifier
  // will not subtract its wait time.
  tr.functions.intern("MPI_Allreduce", "APP", trace::Paradigm::Compute);
  const LintReport report = lintTrace(tr, only("sync-coverage"));
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_NE(report.findings[0].message.find("MPI_Allreduce"),
            std::string::npos);
  EXPECT_EQ(report.findings[0].severity, Severity::Warning);
}

TEST(LintRules, DominantEligibilityWarnsWithoutCandidate) {
  // Every rank calls `main` once: nothing reaches 2 * p invocations.
  trace::TraceBuilder b(4);
  const auto f = b.defineFunction("main");
  for (trace::ProcessId p = 0; p < 4; ++p) {
    b.enter(p, 1, f);
    b.leave(p, 100, f);
  }
  const Trace tr = b.finish();
  const LintReport report = lintTrace(tr);
  ASSERT_TRUE(hasRule(report, "dominant-eligibility"));
}

TEST(LintRules, SegmentSkewWarnsOnNonUniformCounts) {
  trace::TraceBuilder b(2);
  const auto f = b.defineFunction("step");
  for (int i = 0; i < 6; ++i) {  // rank 0: 6 segments
    b.enter(0, 10 * i, f);
    b.leave(0, 10 * i + 5, f);
  }
  for (int i = 0; i < 4; ++i) {  // rank 1: 4 segments
    b.enter(1, 10 * i, f);
    b.leave(1, 10 * i + 5, f);
  }
  const Trace tr = b.finish();
  const LintReport report = lintTrace(tr);
  ASSERT_TRUE(hasRule(report, "segment-skew"));
}

TEST(LintRules, ZeroDurationInvocation) {
  trace::TraceBuilder b(1);
  const auto f = b.defineFunction("work");
  const auto g = b.defineFunction("instant");
  for (int i = 0; i < 3; ++i) {
    b.enter(0, 10 * i, f);
    b.leave(0, 10 * i + 5, f);
  }
  b.enter(0, 40, g);
  b.leave(0, 40, g);
  const Trace tr = b.finish();
  const LintReport report = lintTrace(tr, only("zero-duration"));
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].severity, Severity::Info);
  EXPECT_EQ(report.findings[0].message, "zero-duration invocation of 'instant'");
}

TEST(LintRules, QuarantineInteraction) {
  Trace tr = cleanTrace();
  trace::QuarantinedRank q;
  q.process = 2;
  q.name = tr.processes[2].name;
  q.error = ErrorCode::ChecksumMismatch;
  q.eventsSalvaged = 5;
  q.eventsDropped = 7;
  tr.quarantined.push_back(q);
  tr.processes[2].events.clear();  // as a salvage load may leave it
  const LintReport report = lintTrace(tr);
  ASSERT_TRUE(hasRule(report, "quarantine-interaction"));
  bool found = false;
  for (const Finding& f : report.findings) {
    if (f.rule == "quarantine-interaction") {
      EXPECT_EQ(f.severity, Severity::Warning);
      EXPECT_EQ(f.process, 2);
      EXPECT_NE(f.message.find("checksum-mismatch"), std::string::npos);
      EXPECT_NE(f.message.find("5 event(s) salvaged"), std::string::npos);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LintRules, AllRanksQuarantinedIsAnError) {
  Trace tr = cleanTrace();
  for (trace::ProcessId p = 0; p < 4; ++p) {
    trace::QuarantinedRank q;
    q.process = p;
    q.error = ErrorCode::TruncatedInput;
    tr.quarantined.push_back(q);
  }
  const LintReport report = lintTrace(tr);
  EXPECT_TRUE(report.hasAtLeast(Severity::Error));
  bool found = false;
  for (const Finding& f : report.findings) {
    found |= f.rule == "quarantine-interaction" &&
             f.severity == Severity::Error &&
             f.message.find("nothing left to analyze") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

// ---- determinism -----------------------------------------------------------

TEST(LintDeterminism, ReportsAreByteIdenticalAcrossThreadCounts) {
  const Trace tr = dirtyTrace(8);
  LintOptions serial;
  serial.threads = 1;
  const LintReport reference = lintTrace(tr, serial);
  EXPECT_FALSE(reference.clean());
  for (const std::size_t threads : {2ul, 8ul}) {
    LintOptions options;
    options.threads = threads;
    const LintReport report = lintTrace(tr, options);
    // Structured equality...
    EXPECT_EQ(report.findings, reference.findings) << threads << " threads";
    EXPECT_EQ(report.rulesRun, reference.rulesRun);
    EXPECT_EQ(report.truncated, reference.truncated);
    // ... and byte-identical renderings in every format.
    for (const auto format :
         {analysis::ExportFormat::Text, analysis::ExportFormat::Json,
          analysis::ExportFormat::Csv}) {
      EXPECT_EQ(exportLintReportString(report, format),
                exportLintReportString(reference, format))
          << threads << " threads";
    }
  }
}

TEST(LintDeterminism, ExternalPoolMatchesSerial) {
  const Trace tr = dirtyTrace(5);
  const LintReport reference = lintTrace(tr);
  util::ThreadPool pool(3);
  LintOptions options;
  options.pool = &pool;
  const LintReport report = lintTrace(tr, options);
  EXPECT_EQ(report.findings, reference.findings);
}

TEST(LintDeterminism, CleanScenarioIdenticalAcrossThreads) {
  apps::CosmoSpecsConfig cfg;
  cfg.gridX = 4;
  cfg.gridY = 4;
  cfg.timesteps = 12;
  const auto scenario = apps::buildCosmoSpecs(cfg);
  const Trace tr = sim::simulate(scenario.program, scenario.simOptions);
  const std::string reference =
      exportLintReportString(lintTrace(tr), analysis::ExportFormat::Json);
  for (const std::size_t threads : {2ul, 8ul}) {
    LintOptions options;
    options.threads = threads;
    EXPECT_EQ(exportLintReportString(lintTrace(tr, options),
                                     analysis::ExportFormat::Json),
              reference);
  }
}

// ---- options ---------------------------------------------------------------

TEST(LintOptionsTest, DisabledRulesAreSkipped) {
  const Trace tr = dirtyTrace(2);
  LintOptions options;
  options.disabledRules = {"clock-monotonicity", "zero-duration"};
  const LintReport report = lintTrace(tr, options);
  EXPECT_FALSE(hasRule(report, "clock-monotonicity"));
  EXPECT_FALSE(hasRule(report, "zero-duration"));
  EXPECT_TRUE(hasRule(report, "undefined-function-ref"));
  EXPECT_EQ(std::find(report.rulesRun.begin(), report.rulesRun.end(),
                      "clock-monotonicity"),
            report.rulesRun.end());
}

TEST(LintOptionsTest, UnknownSuppressedRuleIsAnInfoFinding) {
  const Trace tr = cleanTrace();
  LintOptions options;
  options.disabledRules = {"no-such-rule"};
  const LintReport report = lintTrace(tr, options);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, "lint-config");
  EXPECT_EQ(report.findings[0].severity, Severity::Info);
  EXPECT_NE(report.findings[0].message.find("no-such-rule"),
            std::string::npos);
}

TEST(LintOptionsTest, MinSeverityFiltersAtTheSource) {
  Trace tr = cleanTrace();
  tr.functions.intern("dead-code");  // Info finding
  LintOptions options;
  options.minSeverity = Severity::Warning;
  const LintReport report = lintTrace(tr, options);
  EXPECT_TRUE(report.clean());
}

TEST(LintOptionsTest, MaxFindingsPerRuleTruncates) {
  const Trace tr = dirtyTrace(6);  // 6 ranks x 1 decreasing timestamp
  LintOptions options;
  options.maxFindingsPerRule = 2;
  const LintReport report = lintTrace(tr, options);
  std::size_t clock = 0;
  for (const Finding& f : report.findings) {
    clock += f.rule == "clock-monotonicity" ? 1 : 0;
  }
  EXPECT_EQ(clock, 2u);
  bool noted = false;
  for (const TruncatedRule& t : report.truncated) {
    if (t.rule == "clock-monotonicity") {
      EXPECT_EQ(t.dropped, 4u);
      noted = true;
    }
  }
  EXPECT_TRUE(noted);
}

TEST(LintSeverity, NamesRoundTrip) {
  for (const Severity s :
       {Severity::Info, Severity::Warning, Severity::Error}) {
    EXPECT_EQ(severityFromName(severityName(s)), s);
  }
  EXPECT_THROW(severityFromName("fatal"), Error);
}

// ---- registry --------------------------------------------------------------

class TestRule final : public Rule {
public:
  explicit TestRule(std::string id) : id_(std::move(id)) {}
  std::string_view id() const override { return id_; }
  std::string_view description() const override { return "test rule"; }
  void checkTrace(const RuleContext&, Sink& sink) const override {
    sink.report(Severity::Info, "custom rule ran");
  }

private:
  std::string id_;
};

TEST(LintRegistry, RejectsDuplicateAndMalformedIds) {
  RuleRegistry registry;
  registry.add(std::make_shared<TestRule>("my-rule"));
  EXPECT_THROW(registry.add(std::make_shared<TestRule>("my-rule")), Error);
  EXPECT_THROW(registry.add(std::make_shared<TestRule>("My-Rule")), Error);
  EXPECT_THROW(registry.add(std::make_shared<TestRule>("has spaces")), Error);
  EXPECT_THROW(registry.add(std::make_shared<TestRule>("")), Error);
  EXPECT_THROW(registry.add(nullptr), Error);
  EXPECT_NE(registry.find("my-rule"), nullptr);
  EXPECT_EQ(registry.find("other"), nullptr);
}

TEST(LintRegistry, BuiltinCanBeExtendedByCopy) {
  RuleRegistry registry = RuleRegistry::builtin();
  registry.add(std::make_shared<TestRule>("custom-check"));
  const Trace tr = cleanTrace();
  const LintReport report = lintTrace(tr, {}, registry);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, "custom-check");
  EXPECT_EQ(report.findings[0].message, "custom rule ran");
}

TEST(LintRegistry, ThrowingRuleBecomesAFindingNotACrash) {
  class ThrowingRule final : public Rule {
  public:
    std::string_view id() const override { return "throwing-rule"; }
    std::string_view description() const override { return "always throws"; }
    void checkProcess(const RuleContext&, const RankEvents&,
                      Sink&) const override {
      throw std::runtime_error("per-rank boom");
    }
    void checkTrace(const RuleContext&, Sink&) const override {
      throw std::runtime_error("global boom");
    }
  };
  RuleRegistry registry;
  registry.add(std::make_shared<ThrowingRule>());
  const Trace clean = cleanTrace();
  const LintReport report = lintTrace(clean, {}, registry);
  // One aborted finding per rank plus one for the global phase.
  ASSERT_EQ(report.findings.size(), 5u);
  EXPECT_EQ(report.findings[0].message, "rule aborted: per-rank boom");
  EXPECT_EQ(report.findings[4].message, "rule aborted: global boom");
}

/// Reports each rank's census as one finding; declares that it reads the
/// census only when `optIn`.
class CensusDumpRule final : public Rule {
public:
  explicit CensusDumpRule(bool optIn) : optIn_(optIn) {}
  std::string_view id() const override {
    return optIn_ ? "census-dump" : "census-dump-undeclared";
  }
  std::string_view description() const override { return "dumps the census"; }
  bool readsCensus() const override { return optIn_; }
  void checkTrace(const RuleContext& context, Sink& sink) const override {
    const TraceCensus& census = context.census();
    for (trace::ProcessId p = 0; p < census.processCount(); ++p) {
      std::ostringstream os;
      os << "peers";
      for (const TraceCensus::Channel& c : census.channels(p)) {
        os << ' ' << c.peer << ':' << c.sends << '/' << c.recvs;
      }
      os << "; functions";
      for (const TraceCensus::Invocations& f : census.functions(p)) {
        os << ' ' << f.function << 'x' << f.outermost;
      }
      os << "; function 0 " << census.outermostInvocations(p, 0);
      sink.reportProcess(Severity::Info, p, os.str());
    }
  }

private:
  bool optIn_;
};

TEST(LintRegistry, CustomRuleReadsTheCensusWhenItOptsIn) {
  RuleRegistry registry;
  registry.add(std::make_shared<CensusDumpRule>(true));
  registry.add(std::make_shared<CensusDumpRule>(false));
  const Trace clean = cleanTrace();
  // Rank p sends to p + 1 before it receives from p - 1; the census
  // lists peers and functions in ascending order.
  const std::string dump =
      "info [census-dump] process 0: peers 1:8/0 3:0/8; "
      "functions 0x8 1x8; function 0 8\n"
      "info [census-dump] process 1: peers 0:0/8 2:8/0; "
      "functions 0x8 1x8; function 0 8\n"
      "info [census-dump] process 2: peers 1:0/8 3:8/0; "
      "functions 0x8 1x8; function 0 8\n"
      "info [census-dump] process 3: peers 0:8/0 2:0/8; "
      "functions 0x8 1x8; function 0 8\n";
  for (const std::size_t threads : {1ul, 4ul}) {
    LintOptions options = only("census-dump");
    options.threads = threads;
    EXPECT_EQ(formatLintReport(lintTrace(clean, options, registry)),
              "lint: 1 rule(s), 4 process(es)\n" + dump +
                  "0 error(s), 0 warning(s), 4 info\n");
  }
  // A stream that does not replay has no outermost counts.
  const Trace dirty = dirtyTrace(2);
  const LintReport unbalanced =
      lintTrace(dirty, only("census-dump"), registry);
  ASSERT_EQ(unbalanced.findings.size(), 1u);
  EXPECT_NE(unbalanced.findings[0].message.find(
                "rule aborted: perfvar: replay: unbalanced enter/leave"),
            std::string::npos);
  // Without a rule that declares it, no census is taken.
  const LintReport undeclared =
      lintTrace(clean, only("census-dump-undeclared"), registry);
  ASSERT_EQ(undeclared.findings.size(), 1u);
  EXPECT_NE(undeclared.findings[0].message.find(
                "rule aborted: perfvar: lint census not taken"),
            std::string::npos);
}

// ---- renderers -------------------------------------------------------------

TEST(LintExport, TextJsonCsvRender) {
  const Trace tr = dirtyTrace(1);
  const LintReport report = lintTrace(tr);
  const std::string text =
      exportLintReportString(report, analysis::ExportFormat::Text);
  EXPECT_NE(text.find("lint: "), std::string::npos);
  EXPECT_NE(text.find("error ["), std::string::npos);
  const std::string json =
      exportLintReportString(report, analysis::ExportFormat::Json);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"lint\":"), std::string::npos);
  EXPECT_NE(json.find("\"findings\":["), std::string::npos);
  const std::string csv =
      exportLintReportString(report, analysis::ExportFormat::Csv);
  EXPECT_EQ(csv.rfind("severity,rule,process,event,message\n", 0), 0u);
  EXPECT_THROW(
      exportLintReportString(report, analysis::ExportFormat::CsvIterations),
      Error);
  EXPECT_THROW(
      exportLintReportString(report, analysis::ExportFormat::CsvHotspots),
      Error);
}

TEST(LintExport, CsvEscapesQuotes) {
  Trace tr;
  tr.functions.intern("fn\"quoted");
  tr.processes.push_back({"p0", {}});
  const LintReport report = lintTrace(tr);  // unreferenced function Info
  const std::string csv =
      exportLintReportString(report, analysis::ExportFormat::Csv);
  EXPECT_NE(csv.find("fn\"\"quoted"), std::string::npos);
}

// ---- structural validation --------------------------------------------------

TEST(ValidateStructure, CleanTraceStaysClean) {
  const Trace tr = cleanTrace();
  EXPECT_TRUE(validateStructure(tr).empty());
  EXPECT_NO_THROW(requireStructurallyValid(tr));
}

TEST(ValidateStructure, IssueOrderMatchesHistoricalValidator) {
  // The historical validator walked each rank once, reporting the
  // timestamp check before the kind checks; it skipped the stack
  // manipulation for undefined function refs. Reproduce its exact issue
  // sequence on a trace hitting every message.
  Trace tr;
  const auto f = tr.functions.intern("f");
  const auto g = tr.functions.intern("g");
  tr.processes.push_back({"p0",
                          {Event::enter(10, f),        // 0
                           Event::leave(5, 99),        // 1: decreases + undef
                           Event::leave(6, g),         // 2: mismatch
                           Event::metric(7, 9, 0.0),   // 3: undef metric
                           Event::mpiSend(8, 0, 0, 1), // 4: self message
                           Event::mpiRecv(9, 42, 0, 1)}});  // 5: bad peer
  const auto issues = validateStructure(tr);
  ASSERT_EQ(issues.size(), 7u);
  EXPECT_EQ(issues[0].eventIndex, 1u);
  EXPECT_EQ(issues[0].message, "timestamp decreases");
  EXPECT_EQ(issues[1].eventIndex, 1u);
  EXPECT_EQ(issues[1].message, "leave references undefined function");
  EXPECT_EQ(issues[2].message,
            "leave of 'g' does not match innermost enter 'f'");
  EXPECT_EQ(issues[3].message, "metric sample references undefined metric");
  EXPECT_EQ(issues[4].message, "message to/from self");
  EXPECT_EQ(issues[5].message, "message references undefined peer process");
  EXPECT_EQ(issues[6].eventIndex, 6u);  // events.size()
  EXPECT_EQ(issues[6].message, "1 unclosed enter frame(s), innermost 'f'");
}

TEST(ValidateStructure, RequireValidThrowsWithContext) {
  Trace tr;
  const auto f = tr.functions.intern("f");
  tr.processes.push_back({"p0", {}});
  tr.processes.push_back({"p1", {Event::leave(1, f)}});
  try {
    requireStructurallyValid(tr);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::MalformedEvent);
    EXPECT_EQ(e.context().rank, 1);
    EXPECT_NE(std::string(e.what()).find("invalid trace (1 issue(s))"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("leave without matching enter"),
              std::string::npos);
  }
}

TEST(ValidateStructure, SemanticRulesDoNotLeakIntoValidate) {
  // A trace with only semantic findings (no dominant candidate, zero
  // durations, unreferenced defs) must still validate cleanly.
  trace::TraceBuilder b(2);
  const auto f = b.defineFunction("main");
  b.defineFunction("unused");
  for (trace::ProcessId p = 0; p < 2; ++p) {
    b.enter(p, 0, f);
    b.leave(p, 0, f);  // zero-duration
  }
  const Trace tr = b.finish();
  EXPECT_FALSE(lintTrace(tr).clean());
  EXPECT_TRUE(validateStructure(tr).empty());
}

// ---- engine integration ----------------------------------------------------

TEST(EngineLint, ReportIsCachedLikeTheProfile) {
  engine::AnalysisEngine eng(cleanTrace());
  const auto first = eng.lintReport();
  EXPECT_TRUE(first->clean());
  const auto stats0 = eng.cacheStats();
  const auto second = eng.lintReport();
  EXPECT_EQ(first.get(), second.get());  // same cached instance
  const auto stats1 = eng.cacheStats();
  EXPECT_EQ(stats1.hits, stats0.hits + 1);
  EXPECT_EQ(stats1.misses, stats0.misses);
  EXPECT_GT(stats1.bytes, 0u);
}

TEST(EngineLint, ParallelEngineLintMatchesSerial) {
  const Trace tr = dirtyTrace(6);
  engine::AnalysisEngine serial{Trace(tr)};
  engine::EngineOptions parallelOptions;
  parallelOptions.threads = 4;
  engine::AnalysisEngine parallel{Trace(tr), parallelOptions};
  EXPECT_EQ(serial.lintReport()->findings, parallel.lintReport()->findings);
}

// ---- what lint decodes on the lazy path ------------------------------------

/// cleanTrace() saved as a v2 file and opened lazily with the default
/// shard budget, which holds every rank.
trace::TraceView openLazyClean(const std::string& tag) {
  const std::string path =
      "lint_lazy_" + tag + "_" + std::to_string(getpid()) + ".pvt";
  trace::saveBinaryFile(cleanTrace(), path);
  trace::TraceView view = trace::TraceView::openFile(path);
  std::remove(path.c_str());  // the view keeps its mapping
  return view;
}

TEST(LintLazy, RulesThatReadNoEventsPinNothing) {
  const trace::TraceView view = openLazyClean("defs");
  const LintReport report = lintTrace(view, only("sync-coverage"));
  EXPECT_EQ(report.rulesRun, std::vector<std::string>{"sync-coverage"});
  EXPECT_EQ(view.stats().shardDecodes, 0u);
}

TEST(LintLazy, ValidateStructureDecodesEachRankOnce) {
  const trace::TraceView view = openLazyClean("validate");
  EXPECT_TRUE(validateStructure(view).empty());
  EXPECT_EQ(view.stats().shardDecodes, view.processCount());
}

// ---- a rank that fails to decode ------------------------------------------

/// A strict lazy view whose rank 1 declares an impossible event count:
/// every pin of rank 1 throws. Each per-rank rule reports one aborted
/// finding on rank 1, and every global sweep over the ranks aborts too.
/// The bytes are pinned, so a change to how rules reach a rank's events
/// cannot change what lint says about an unreadable one.
TEST(LintCorruptBlock, UndecodableRankAbortsEveryRuleThatReadsIt) {
  const testing::Image image = testing::FaultInjector::oversizeCount(
      testing::encodeImage(cleanTrace(), trace::kBinaryFormatV2), 1);
  const std::string path =
      "lint_corrupt_block_" + std::to_string(getpid()) + ".pvt";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
  }
  const trace::TraceView view = trace::TraceView::openFile(path);
  // The decode error names its source location, so read it off the pin.
  std::string what;
  try {
    (void)view.rank(1);
  } catch (const Error& e) {
    what = e.what();
  }
  ASSERT_NE(what.find("event count exceeds block size"), std::string::npos);
  const std::string aborted = ": rule aborted: " + what + "\n";
  const std::string expected =
      "lint: 15 rule(s), 4 process(es)\n"
      "warning [clock-monotonicity] process 1" + aborted +
      "warning [stack-balance] process 1" + aborted +
      "warning [undefined-function-ref] process 1" + aborted +
      "warning [undefined-metric-ref] process 1" + aborted +
      "warning [message-endpoints] process 1" + aborted +
      "warning [zero-duration] process 1" + aborted +
      "warning [message-pairing] trace" + aborted +
      "warning [definition-integrity] trace" + aborted +
      "0 error(s), 8 warning(s), 0 info\n";
  EXPECT_EQ(formatLintReport(lintTrace(view)), expected);
  engine::AnalysisEngine eng{trace::TraceView::openFile(path)};
  EXPECT_EQ(formatLintReport(*eng.lintReport()), expected);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace perfvar::lint
