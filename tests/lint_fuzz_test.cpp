/// Lint robustness fuzz: every lint rule must survive hostile inputs —
/// FaultInjector-corrupted v1/v2 images loaded in Salvage mode, and
/// in-memory traces with deterministically scrambled event fields — by
/// reporting findings, never by crashing, hanging or throwing out of
/// lintTrace() (its documented robustness contract). Each salvaged or
/// mutated trace is linted with the full registry and once per rule in
/// isolation, serially and on 4 threads, and every report must render in
/// all three export formats. The same hostile traces also check the
/// census-backed whole-trace rules against their serial sweeps.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/segments.hpp"
#include "lint/lint.hpp"
#include "trace/binary_io.hpp"
#include "trace/builder.hpp"
#include "trace/fault_injection.hpp"
#include "trace/view.hpp"
#include "util/error.hpp"

namespace perfvar::lint {
namespace {

namespace ft = perfvar::testing;
using ft::FaultInjector;
using ft::Image;
using trace::Trace;

/// Same shape as the fault-injection matrix's synthetic trace: every
/// event kind, escape-coded ids, neighbor messaging.
Trace syntheticTrace(std::size_t ranks, std::size_t iterations) {
  trace::TraceBuilder b(ranks);
  std::vector<trace::FunctionId> fns;
  for (std::size_t i = 0; i < 40; ++i) {
    fns.push_back(
        b.defineFunction("fn" + std::to_string(i), i % 3 ? "APP" : "MPI",
                         i % 3 ? trace::Paradigm::Compute
                               : trace::Paradigm::MPI));
  }
  const auto m = b.defineMetric("cycles", "count");
  for (trace::ProcessId p = 0; p < ranks; ++p) {
    trace::Timestamp t = 17 * (p + 1);
    for (std::size_t it = 0; it < iterations; ++it) {
      const auto f = fns[(p + it) % fns.size()];
      b.enter(p, t, f);
      t += 3 + ((p * 31 + it * 7) % 5000);
      b.metric(p, t, m, static_cast<double>(p) * 1e6 + it);
      if (ranks > 1) {
        const auto peer = static_cast<trace::ProcessId>((p + 1) % ranks);
        b.mpiSend(p, t, peer, static_cast<std::uint32_t>(it), 64 * (it + 1));
        const auto src =
            static_cast<trace::ProcessId>((p + ranks - 1) % ranks);
        b.mpiRecv(p, t + 1, src, static_cast<std::uint32_t>(it), 64);
      }
      t += 2;
      b.leave(p, t, f);
      ++t;
    }
  }
  return b.finish();
}

/// Lint `tr` with the full registry and once per rule in isolation, at 1
/// and 4 threads. Any exception escaping lintTrace() (or a renderer)
/// fails the test; findings are the expected outcome.
void lintMustSurvive(const Trace& tr, const std::string& what) {
  SCOPED_TRACE(what);
  for (const std::size_t threads : {1ul, 4ul}) {
    LintOptions options;
    options.threads = threads;
    LintReport report;
    ASSERT_NO_THROW(report = lintTrace(tr, options))
        << "full registry @" << threads << " threads";
    for (const auto format :
         {analysis::ExportFormat::Text, analysis::ExportFormat::Json,
          analysis::ExportFormat::Csv}) {
      ASSERT_NO_THROW(exportLintReportString(report, format));
    }
  }
  for (const auto& rule : RuleRegistry::builtin().rules()) {
    LintOptions solo;
    solo.onlyRules = {std::string(rule->id())};
    ASSERT_NO_THROW(lintTrace(tr, solo)) << "rule " << rule->id();
  }
}

/// Salvage-load `image`; true (with `out` filled) when the load itself
/// survived. A classified Error is acceptable — global damage (header,
/// definition table) is not salvageable — but then there is nothing to
/// lint.
bool salvage(const Image& image, Trace& out) {
  trace::BinaryReadOptions options;
  options.recovery = trace::RecoveryMode::Salvage;
  try {
    out = trace::readBinaryBuffer(image.data(), image.size(), options);
    return true;
  } catch (const Error&) {
    return false;
  }
}

// ---- salvaged corrupted images ---------------------------------------------

TEST(LintFuzz, SurvivesSalvagedBitFlips) {
  const Trace original = syntheticTrace(5, 24);
  for (const std::uint32_t version :
       {trace::kBinaryFormatV1, trace::kBinaryFormatV2}) {
    const Image clean = ft::encodeImage(original, version);
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
      FaultInjector inj(seed);
      // Flip 1..4 bits anywhere in the image, header included.
      const Image bad =
          inj.bitFlip(clean, 0, clean.size(), 1 + seed % 4);
      Trace tr;
      if (salvage(bad, tr)) {
        lintMustSurvive(tr, "v" + std::to_string(version) + " bit-flip seed " +
                                std::to_string(seed));
      }
    }
  }
}

TEST(LintFuzz, SurvivesSalvagedTruncationsAndTornTails) {
  const Trace original = syntheticTrace(4, 16);
  for (const std::uint32_t version :
       {trace::kBinaryFormatV1, trace::kBinaryFormatV2}) {
    const Image clean = ft::encodeImage(original, version);
    const std::size_t step = clean.size() / 23 + 1;
    for (std::size_t cut = 0; cut < clean.size(); cut += step) {
      Trace tr;
      if (salvage(FaultInjector::truncateAt(clean, cut), tr)) {
        lintMustSurvive(tr, "v" + std::to_string(version) + " truncate@" +
                                std::to_string(cut));
      }
    }
    for (const std::size_t torn : {1ul, 7ul, 64ul}) {
      Trace tr;
      if (salvage(FaultInjector::tornTail(clean, torn), tr)) {
        lintMustSurvive(tr, "v" + std::to_string(version) + " torn-tail " +
                                std::to_string(torn));
      }
    }
  }
}

TEST(LintFuzz, SurvivesSalvagedTableDamage) {
  const Trace original = syntheticTrace(5, 24);
  const Image clean = ft::encodeImage(original, trace::kBinaryFormatV2);
  for (std::size_t rank = 0; rank < 5; ++rank) {
    Trace zeroed;
    if (salvage(FaultInjector::zeroTableEntry(clean, rank), zeroed)) {
      lintMustSurvive(zeroed, "zero-table-entry " + std::to_string(rank));
    }
    Trace oversized;
    if (salvage(FaultInjector::oversizeCount(clean, rank), oversized)) {
      lintMustSurvive(oversized, "oversize-count " + std::to_string(rank));
    }
  }
}

TEST(LintFuzz, SalvagedTraceAlwaysNamesQuarantineInteraction) {
  // When a salvage load quarantined ranks, the lint report must say so.
  const Trace original = syntheticTrace(6, 30);
  const Image clean = ft::encodeImage(original, trace::kBinaryFormatV2);
  FaultInjector inj(42);
  const Image bad = inj.bitFlip(clean, clean.size() / 2, clean.size(), 3);
  Trace tr;
  ASSERT_TRUE(salvage(bad, tr));
  if (!tr.quarantined.empty()) {
    const LintReport report = lintTrace(tr);
    bool named = false;
    for (const Finding& f : report.findings) {
      named |= f.rule == "quarantine-interaction";
    }
    EXPECT_TRUE(named);
  }
}

// ---- scrambled in-memory traces --------------------------------------------

/// xorshift64: deterministic, seed-stable across platforms.
std::uint64_t nextRand(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

/// Scramble `mutations` random event fields of a copy of `tr`.
Trace scramble(const Trace& tr, std::uint64_t seed, std::size_t mutations) {
  Trace out = tr;
  std::uint64_t state = seed * 2654435761u + 1;
  for (std::size_t i = 0; i < mutations; ++i) {
    auto& proc = out.processes[nextRand(state) % out.processes.size()];
    if (proc.events.empty()) {
      continue;
    }
    trace::Event& e = proc.events[nextRand(state) % proc.events.size()];
    switch (nextRand(state) % 5) {
      case 0:
        e.time = nextRand(state);  // breaks monotonicity
        break;
      case 1:
        // Out-of-range kinds included: rules must not choke on them.
        e.kind = static_cast<trace::EventKind>(nextRand(state) % 8);
        break;
      case 2:
        e.ref = static_cast<std::uint32_t>(nextRand(state));
        break;
      case 3:
        e.size = nextRand(state);
        break;
      case 4:
        e.value = static_cast<double>(nextRand(state));
        break;
    }
  }
  return out;
}

TEST(LintFuzz, SurvivesScrambledEventFields) {
  const Trace original = syntheticTrace(4, 16);
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const Trace mutated = scramble(original, seed, 1 + seed % 40);
    lintMustSurvive(mutated, "scramble seed " + std::to_string(seed));
  }
}

TEST(LintFuzz, SurvivesDegenerateShapes) {
  // Empty trace, definition-only trace, event-only (no definitions),
  // single empty process, bogus quarantine metadata.
  Trace empty;
  lintMustSurvive(empty, "empty trace");

  Trace defsOnly;
  defsOnly.functions.intern("f");
  defsOnly.metrics.intern("m");
  lintMustSurvive(defsOnly, "definitions only");

  Trace noDefs;
  noDefs.processes.push_back(
      {"p0",
       {trace::Event::enter(1, 0), trace::Event::leave(2, 0),
        trace::Event::metric(3, 0, 1.0), trace::Event::mpiSend(4, 1, 0, 8)}});
  lintMustSurvive(noDefs, "events without definitions");

  Trace bogusQuarantine = syntheticTrace(2, 4);
  trace::QuarantinedRank q;
  q.process = 57;  // out of range
  q.error = ErrorCode::ChecksumMismatch;
  bogusQuarantine.quarantined.push_back(q);
  lintMustSurvive(bogusQuarantine, "bogus quarantine metadata");
  const LintReport report = lintTrace(bogusQuarantine);
  EXPECT_TRUE(report.hasAtLeast(Severity::Error));  // nonexistent process
}

TEST(LintFuzz, SurvivesDependencyGraphPathologies) {
  // Shapes aimed at the happens-before builder behind the dependency
  // rules: cyclic timestamps across matched pairs (the backward walk must
  // hit its visited guard, not loop), floods of unmatched sends, and
  // self/out-of-range endpoints. The graph builder documents that it
  // never throws; these entries keep the full lint pipeline honest.
  Trace cyclic;
  cyclic.functions.intern("f", "APP");
  for (int p = 0; p < 3; ++p) {
    trace::ProcessTrace proc;
    proc.name = "p" + std::to_string(p);
    const auto peer = static_cast<trace::ProcessId>((p + 1) % 3);
    const auto src = static_cast<trace::ProcessId>((p + 2) % 3);
    // Receives complete before the matching sends depart: time runs
    // backward over every cross edge.
    proc.events.push_back(trace::Event::mpiRecv(5, src, 0, 8));
    proc.events.push_back(trace::Event::mpiSend(100, peer, 0, 8));
    proc.events.push_back(trace::Event::mpiRecv(3, src, 1, 8));
    proc.events.push_back(trace::Event::mpiSend(90, peer, 1, 8));
    cyclic.processes.push_back(std::move(proc));
  }
  lintMustSurvive(cyclic, "cyclic timestamps across matched pairs");

  Trace unmatched;
  unmatched.functions.intern("f", "APP");
  for (int p = 0; p < 4; ++p) {
    trace::ProcessTrace proc;
    proc.name = "p" + std::to_string(p);
    for (trace::Timestamp t = 0; t < 64; ++t) {
      // Every send targets rank 0 on its own tag; nothing ever receives.
      proc.events.push_back(trace::Event::mpiSend(
          t, 0, static_cast<std::uint32_t>(t), 8));
    }
    // Self-sends and out-of-range endpoints ride along.
    proc.events.push_back(
        trace::Event::mpiSend(100, static_cast<trace::ProcessId>(p), 0, 8));
    proc.events.push_back(trace::Event::mpiSend(101, 10000, 0, 8));
    unmatched.processes.push_back(std::move(proc));
  }
  lintMustSurvive(unmatched, "unmatched send flood");
}

TEST(LintFuzz, ScrambledReportsAreDeterministic) {
  // Determinism must hold on hostile inputs too, not just clean traces.
  const Trace original = syntheticTrace(4, 16);
  for (std::uint64_t seed = 3; seed <= 12; seed += 3) {
    const Trace mutated = scramble(original, seed, 25);
    LintOptions serial;
    const LintReport reference = lintTrace(mutated, serial);
    LintOptions threaded;
    threaded.threads = 4;
    const LintReport report = lintTrace(mutated, threaded);
    EXPECT_EQ(report.findings, reference.findings)
        << "scramble seed " << seed;
    EXPECT_EQ(exportLintReportString(report, analysis::ExportFormat::Json),
              exportLintReportString(reference, analysis::ExportFormat::Json));
  }
}

// ---- census-backed rules against the serial sweeps ------------------------
//
// message-pairing, definition-integrity and segment-skew reduce the census
// that lintTrace() takes in the per-rank phase. The oracles below are the
// serial sweeps they replaced: each pins every rank again on the calling
// thread. Registered under the same ids, they must produce byte-equal
// reports on every hostile input.

class SerialMessagePairing final : public Rule {
public:
  std::string_view id() const override { return "message-pairing"; }
  std::string_view description() const override { return "oracle"; }
  void checkTrace(const RuleContext& context, Sink& sink) const override {
    const trace::TraceView& tr = context.trace();
    std::map<std::pair<trace::ProcessId, trace::ProcessId>,
             std::pair<std::uint64_t, std::uint64_t>>
        pairs;
    for (trace::ProcessId p = 0; p < tr.processCount(); ++p) {
      const trace::RankPin pin = tr.rank(p);
      for (const trace::Event& e : pin.events()) {
        if (e.ref >= tr.processCount() || e.ref == p) {
          continue;
        }
        if (e.kind == trace::EventKind::MpiSend) {
          ++pairs[{p, static_cast<trace::ProcessId>(e.ref)}].first;
        } else if (e.kind == trace::EventKind::MpiRecv) {
          ++pairs[{static_cast<trace::ProcessId>(e.ref), p}].second;
        }
      }
    }
    for (const auto& [pair, counts] : pairs) {
      if (counts.first != counts.second) {
        std::ostringstream os;
        os << "rank " << pair.first << " sent " << counts.first
           << " message(s) to rank " << pair.second << ", which received "
           << counts.second;
        sink.report(Severity::Warning, os.str());
      }
    }
  }
};

class SerialDefinitionIntegrity final : public Rule {
public:
  std::string_view id() const override { return "definition-integrity"; }
  std::string_view description() const override { return "oracle"; }
  void checkTrace(const RuleContext& context, Sink& sink) const override {
    const trace::TraceView& tr = context.trace();
    const auto duplicates = [&](const auto& defs, const char* kind) {
      std::map<std::string, std::uint64_t> names;
      for (const auto& def : defs) {
        ++names[def.name];
      }
      for (const auto& [name, n] : names) {
        if (n > 1) {
          std::ostringstream os;
          os << kind << " name '" << name << "' defined " << n << " times";
          sink.report(Severity::Warning, os.str());
        }
      }
    };
    duplicates(tr.functions().all(), "function");
    duplicates(tr.metrics().all(), "metric");
    std::vector<bool> used(tr.functions().size(), false);
    for (trace::ProcessId p = 0; p < tr.processCount(); ++p) {
      const trace::RankPin pin = tr.rank(p);
      for (const trace::Event& e : pin.events()) {
        if ((e.kind == trace::EventKind::Enter ||
             e.kind == trace::EventKind::Leave) &&
            e.ref < used.size()) {
          used[e.ref] = true;
        }
      }
    }
    for (std::size_t f = 0; f < used.size(); ++f) {
      if (!used[f]) {
        sink.report(Severity::Info,
                    "function '" +
                        tr.functions().name(static_cast<trace::FunctionId>(f)) +
                        "' is defined but never referenced by any event");
      }
    }
  }
};

class SerialSegmentSkew final : public Rule {
public:
  std::string_view id() const override { return "segment-skew"; }
  std::string_view description() const override { return "oracle"; }
  void checkTrace(const RuleContext& context, Sink& sink) const override {
    const trace::TraceView* tr = context.analysisTrace();
    const analysis::DominantSelection* sel = context.dominantOrNull();
    if (tr == nullptr || sel == nullptr || !sel->hasDominant()) {
      return;
    }
    const trace::FunctionId f = sel->dominant().function;
    const analysis::SegmentationInfo info =
        analysis::describeSegmentation(analysis::extractSegments(*tr, f));
    if (!info.uniform) {
      std::ostringstream os;
      os << "segment counts of dominant function '" << tr->functions().name(f)
         << "' differ across ranks (min " << info.minPerProcess << ", max "
         << info.maxPerProcess
         << "); per-iteration statistics will misalign";
      sink.report(Severity::Warning, os.str());
    }
  }
};

/// The built-in registry with the three census rules swapped for their
/// serial oracles, in the same registry order.
const RuleRegistry& serialRegistry() {
  static const RuleRegistry registry = [] {
    RuleRegistry r;
    for (const auto& rule : RuleRegistry::builtin().rules()) {
      if (rule->id() == "message-pairing") {
        r.add(std::make_shared<SerialMessagePairing>());
      } else if (rule->id() == "definition-integrity") {
        r.add(std::make_shared<SerialDefinitionIntegrity>());
      } else if (rule->id() == "segment-skew") {
        r.add(std::make_shared<SerialSegmentSkew>());
      } else {
        r.add(rule);
      }
    }
    return r;
  }();
  return registry;
}

/// Lint `view` with the built-in and the serial registry, in full and with
/// only the three census rules, at 1 and 4 threads; every pair of reports
/// must be byte-equal. Returns the full serial report.
std::string expectCensusMatchesSerial(const trace::TraceView& view,
                                      const std::string& what) {
  SCOPED_TRACE(what);
  std::string full;
  for (const std::size_t threads : {1ul, 4ul}) {
    for (const bool alone : {false, true}) {
      LintOptions options;
      options.threads = threads;
      if (alone) {
        options.onlyRules = {"message-pairing", "definition-integrity",
                             "segment-skew"};
      }
      const std::string expected =
          formatLintReport(lintTrace(view, options, serialRegistry()));
      EXPECT_EQ(formatLintReport(lintTrace(view, options)), expected)
          << threads << " thread(s)" << (alone ? ", census rules alone" : "");
      if (!alone) {
        full = expected;
      }
    }
  }
  return full;
}

/// Write `image` to a file named after `tag` and open it lazily.
trace::TraceView openLazy(const Image& image, const std::string& tag,
                          trace::RecoveryMode recovery) {
  const std::string path = "lint_census_" + tag + "_" +
                           std::to_string(getpid()) + ".pvt";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
  }
  trace::TraceViewOptions options;
  options.recovery = recovery;
  trace::TraceView view = trace::TraceView::openFile(path, options);
  std::remove(path.c_str());  // the view keeps its mapping
  return view;
}

/// Check `tr` eagerly and as a strict lazy view of its v2 image.
void expectOnBothViews(const Trace& tr, const std::string& what) {
  expectCensusMatchesSerial(tr, what + " (eager)");
  expectCensusMatchesSerial(
      openLazy(ft::encodeImage(tr, trace::kBinaryFormatV2), "view",
               trace::RecoveryMode::Strict),
      what + " (lazy)");
}

/// Iterative trace whose dominant function `step` recurses: every third
/// step of rank p nests p % 3 inner steps. Rank `skewed` runs one step
/// fewer (so segment-skew and message-pairing fire) unless it is out of
/// range. `step` is defined last but entered first, and every rank sends
/// before it receives, so no rank touches its functions or peers in
/// ascending order.
Trace recursiveStepTrace(std::size_t ranks, std::size_t steps,
                         std::size_t skewed) {
  trace::TraceBuilder b(ranks);
  b.defineFunction("unused", "APP");
  const auto work = b.defineFunction("work", "APP");
  const auto send =
      b.defineFunction("MPI_Sendrecv", "MPI", trace::Paradigm::MPI);
  const auto step = b.defineFunction("step", "APP");
  for (trace::ProcessId p = 0; p < ranks; ++p) {
    trace::Timestamp t = 5 * (p + 1);
    const std::size_t n = steps - (p == skewed ? 1 : 0);
    for (std::size_t it = 0; it < n; ++it) {
      const std::size_t depth = it % 3 == 0 ? p % 3 : 0;
      for (std::size_t d = 0; d <= depth; ++d) {
        b.enter(p, t++, step);
      }
      b.enter(p, t, work);
      t += 10 + (p * 7 + it) % 13;
      b.leave(p, t, work);
      b.enter(p, t, send);
      b.mpiSend(p, t + 1, static_cast<trace::ProcessId>((p + 1) % ranks),
                static_cast<std::uint32_t>(it), 64);
      b.mpiRecv(p, t + 2,
                static_cast<trace::ProcessId>((p + ranks - 1) % ranks),
                static_cast<std::uint32_t>(it), 64);
      t += 4;
      b.leave(p, t, send);
      for (std::size_t d = 0; d <= depth; ++d) {
        b.leave(p, ++t, step);
      }
      ++t;
    }
  }
  return b.finish();
}

/// Copy of `tr` with one Leave of every rank p with p % 3 != 0 removed
/// (an unclosed frame) or duplicated (a leave without its enter).
Trace unbalance(const Trace& tr) {
  Trace out = tr;
  for (std::size_t p = 0; p < out.processes.size(); ++p) {
    auto& events = out.processes[p].events;
    for (std::size_t i = events.size() / 2; i < events.size(); ++i) {
      if (events[i].kind == trace::EventKind::Leave && p % 3 != 0) {
        if (p % 3 == 1) {
          events.erase(events.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          events.insert(events.begin() + static_cast<std::ptrdiff_t>(i),
                        events[i]);
        }
        break;
      }
    }
  }
  return out;
}

/// Copy of `tr` whose messages of rank 0 name rank 0 itself and of rank 1
/// an out-of-range peer.
Trace badPeers(const Trace& tr) {
  Trace out = tr;
  for (std::size_t p = 0; p < 2 && p < out.processes.size(); ++p) {
    for (trace::Event& e : out.processes[p].events) {
      if (e.kind == trace::EventKind::MpiSend ||
          e.kind == trace::EventKind::MpiRecv) {
        e.ref = p == 0 ? 0u : 100000u;
      }
    }
  }
  return out;
}

TEST(LintCensus, MatchesTheSerialSweeps) {
  // Clean, recursive and skewed shapes; scrambled fields; self and
  // out-of-range peers; unbalanced stacks. Eager and lazy.
  const Trace uniform = recursiveStepTrace(6, 12, 6);
  const Trace skewed = recursiveStepTrace(6, 12, 4);
  EXPECT_NE(expectCensusMatchesSerial(skewed, "skewed")
                .find("[segment-skew]"),
            std::string::npos);
  EXPECT_EQ(expectCensusMatchesSerial(uniform, "uniform")
                .find("[segment-skew]"),
            std::string::npos);
  const Trace synthetic = syntheticTrace(4, 16);
  for (const Trace* base : {&uniform, &skewed, &synthetic}) {
    const std::string name = base == &uniform   ? "uniform"
                             : base == &skewed  ? "skewed"
                                                : "synthetic";
    expectOnBothViews(*base, name);
    expectOnBothViews(badPeers(*base), name + " bad peers");
    expectOnBothViews(unbalance(*base), name + " unbalanced");
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      expectOnBothViews(scramble(*base, seed, 1 + seed % 12),
                        name + " scramble seed " + std::to_string(seed));
    }
  }

  // Salvage-quarantined ranks, eager and lazy: the analysis trace drops
  // them, and segment-skew must skip their census rows.
  const Image clean = ft::encodeImage(skewed, trace::kBinaryFormatV2);
  std::size_t quarantining = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    FaultInjector inj(seed);
    const Image bad = inj.bitFlip(clean, clean.size() / 3, clean.size(),
                                  1 + seed % 3);
    const std::string what = "salvaged bit-flip seed " + std::to_string(seed);
    Trace tr;
    if (salvage(bad, tr)) {
      quarantining += tr.quarantined.empty() ? 0 : 1;
      expectCensusMatchesSerial(tr, what + " (eager)");
    }
    try {
      expectCensusMatchesSerial(
          openLazy(bad, "salvage", trace::RecoveryMode::Salvage),
          what + " (lazy)");
    } catch (const Error&) {
      // global damage: the open itself fails, nothing to lint
    }
  }
  EXPECT_GT(quarantining, 0u);

  // An undecodable block on a strict lazy view: every pin of that rank
  // throws, and the census rules abort with the pin's error.
  for (std::size_t rank = 0; rank < 6; rank += 2) {
    expectCensusMatchesSerial(
        openLazy(FaultInjector::oversizeCount(clean, rank), "oversize",
                 trace::RecoveryMode::Strict),
        "oversized block of rank " + std::to_string(rank));
  }
}

}  // namespace
}  // namespace perfvar::lint
