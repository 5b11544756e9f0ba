/// \file rules.cpp
/// The built-in lint rules and their fixed registry order.
///
/// Ordering note: registry order is the tie-break for findings at the same
/// event, and clock-monotonicity must precede the structural rules so the
/// validate() forwarder reproduces the historical single-pass issue order
/// (the old loop checked the timestamp before the event kind).

#include <algorithm>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/depgraph.hpp"
#include "lint/lint.hpp"
#include "util/error.hpp"

namespace perfvar::lint {
namespace {

using trace::Event;
using trace::EventKind;
using trace::FunctionId;
using trace::ProcessId;
using trace::TraceView;

// ---------------------------------------------------------------------------
// Per-rank structural rules (the validate() subset).

/// Timestamps must be non-decreasing within each process stream.
class ClockMonotonicityRule final : public Rule {
public:
  std::string_view id() const override { return "clock-monotonicity"; }
  std::string_view description() const override {
    return "timestamps must be non-decreasing within each process stream";
  }
  void checkProcess(const RuleContext&, const RankEvents& rank,
                    Sink& sink) const override {
    const trace::EventSpan events = rank.events();
    trace::Timestamp last = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (i > 0 && events[i].time < last) {
        sink.reportAt(Severity::Error, i, "timestamp decreases");
      }
      last = events[i].time;
    }
  }
};

/// Enter/Leave events must form a properly nested stack; every frame must
/// be closed by the end of the stream. Events referencing undefined
/// functions are skipped here (undefined-function-ref reports them), so
/// one malformed id does not cascade into bogus stack findings.
class StackBalanceRule final : public Rule {
public:
  std::string_view id() const override { return "stack-balance"; }
  std::string_view description() const override {
    return "enter/leave events must nest properly and close every frame";
  }
  void checkProcess(const RuleContext& context, const RankEvents& rank,
                    Sink& sink) const override {
    const TraceView& tr = context.trace();
    const trace::EventSpan events = rank.events();
    std::vector<FunctionId> stack;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      if (e.ref >= tr.functions().size() &&
          (e.kind == EventKind::Enter || e.kind == EventKind::Leave)) {
        continue;
      }
      if (e.kind == EventKind::Enter) {
        stack.push_back(e.ref);
      } else if (e.kind == EventKind::Leave) {
        if (stack.empty()) {
          sink.reportAt(Severity::Error, i, "leave without matching enter");
        } else if (stack.back() != e.ref) {
          std::ostringstream os;
          os << "leave of '" << tr.functions().name(e.ref)
             << "' does not match innermost enter '"
             << tr.functions().name(stack.back()) << "'";
          sink.reportAt(Severity::Error, i, os.str());
        } else {
          stack.pop_back();
        }
      }
    }
    if (!stack.empty()) {
      std::ostringstream os;
      os << stack.size() << " unclosed enter frame(s), innermost '"
         << tr.functions().name(stack.back()) << "'";
      sink.reportAt(Severity::Error, events.size(), os.str());
    }
  }
};

/// Enter/Leave refs must name a defined function.
class UndefinedFunctionRefRule final : public Rule {
public:
  std::string_view id() const override { return "undefined-function-ref"; }
  std::string_view description() const override {
    return "enter/leave events must reference a defined function";
  }
  void checkProcess(const RuleContext& context, const RankEvents& rank,
                    Sink& sink) const override {
    const TraceView& tr = context.trace();
    const trace::EventSpan events = rank.events();
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      if (e.ref >= tr.functions().size()) {
        if (e.kind == EventKind::Enter) {
          sink.reportAt(Severity::Error, i,
                        "enter references undefined function");
        } else if (e.kind == EventKind::Leave) {
          sink.reportAt(Severity::Error, i,
                        "leave references undefined function");
        }
      }
    }
  }
};

/// Metric samples must reference a defined metric.
class UndefinedMetricRefRule final : public Rule {
public:
  std::string_view id() const override { return "undefined-metric-ref"; }
  std::string_view description() const override {
    return "metric samples must reference a defined metric";
  }
  void checkProcess(const RuleContext& context, const RankEvents& rank,
                    Sink& sink) const override {
    const TraceView& tr = context.trace();
    const trace::EventSpan events = rank.events();
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].kind == EventKind::Metric &&
          events[i].ref >= tr.metrics().size()) {
        sink.reportAt(Severity::Error, i,
                      "metric sample references undefined metric");
      }
    }
  }
};

/// Message events must name an existing peer and never the sender itself.
class MessageEndpointsRule final : public Rule {
public:
  std::string_view id() const override { return "message-endpoints"; }
  std::string_view description() const override {
    return "message events must name an existing peer process (not self)";
  }
  void checkProcess(const RuleContext& context, const RankEvents& rank,
                    Sink& sink) const override {
    const TraceView& tr = context.trace();
    const trace::EventSpan events = rank.events();
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      if (e.kind != EventKind::MpiSend && e.kind != EventKind::MpiRecv) {
        continue;
      }
      if (e.ref >= tr.processCount()) {
        sink.reportAt(Severity::Error, i,
                      "message references undefined peer process");
      } else if (e.ref == rank.process()) {
        sink.reportAt(Severity::Error, i, "message to/from self");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Whole-trace rules.

/// Send/recv counts must agree per directed rank pair. Message records are
/// unilateral in the event model, so a lost or duplicated record shows up
/// as a count mismatch (e.g. after a salvage load or a buggy writer).
class MessagePairingRule final : public Rule {
public:
  std::string_view id() const override { return "message-pairing"; }
  std::string_view description() const override {
    return "send and receive counts must match per directed rank pair";
  }
  bool readsCensus() const override { return true; }
  void checkTrace(const RuleContext& context, Sink& sink) const override {
    const TraceCensus& census = context.census();
    // One entry per nonzero side of a (sender, receiver) pair: the sends
    // come from the sender's channels, the receives from the receiver's.
    // The first rank whose pin threw aborts the rule, as a sweep would.
    struct Pair {
      ProcessId sender;
      ProcessId receiver;
      std::uint64_t sends;
      std::uint64_t recvs;
    };
    std::vector<Pair> sides;
    for (ProcessId p = 0; p < census.processCount(); ++p) {
      for (const TraceCensus::Channel& c : census.channels(p)) {
        if (c.sends != 0) {
          sides.push_back(Pair{p, c.peer, c.sends, 0});
        }
        if (c.recvs != 0) {
          sides.push_back(Pair{c.peer, p, 0, c.recvs});
        }
      }
    }
    const auto key = [](const Pair& x) {
      return std::pair(x.sender, x.receiver);
    };
    std::sort(sides.begin(), sides.end(), [&](const Pair& a, const Pair& b) {
      return key(a) < key(b);
    });
    for (std::size_t i = 0; i < sides.size();) {
      Pair pair = sides[i];
      for (++i; i < sides.size() && key(sides[i]) == key(pair); ++i) {
        pair.sends += sides[i].sends;
        pair.recvs += sides[i].recvs;
      }
      if (pair.sends != pair.recvs) {
        std::ostringstream os;
        os << "rank " << pair.sender << " sent " << pair.sends
           << " message(s) to rank " << pair.receiver << ", which received "
           << pair.recvs;
        sink.report(Severity::Warning, os.str());
      }
    }
  }
};

/// Definition table hygiene: duplicate names (possible after a corrupted
/// load; the in-memory registries intern by name) and function definitions
/// no event ever references. Unreferenced *metric* definitions are not
/// flagged: measurement setups routinely declare every available counter
/// up front and sample only a subset (the trace generators do the same).
class DefinitionIntegrityRule final : public Rule {
public:
  std::string_view id() const override { return "definition-integrity"; }
  std::string_view description() const override {
    return "definition tables must be duplicate-free; every function "
           "definition must be referenced";
  }
  bool readsCensus() const override { return true; }
  void checkTrace(const RuleContext& context, Sink& sink) const override {
    const TraceView& tr = context.trace();
    reportDuplicates(tr, sink);

    const TraceCensus& census = context.census();
    std::vector<bool> functionUsed(tr.functions().size(), false);
    for (ProcessId p = 0; p < census.processCount(); ++p) {
      for (const TraceCensus::Invocations& f : census.functions(p)) {
        functionUsed[f.function] = true;
      }
    }
    for (std::size_t f = 0; f < functionUsed.size(); ++f) {
      if (!functionUsed[f]) {
        sink.report(Severity::Info,
                    "function '" + tr.functions().name(
                                       static_cast<FunctionId>(f)) +
                        "' is defined but never referenced by any event");
      }
    }
  }

private:
  static void reportDuplicates(const TraceView& tr, Sink& sink) {
    std::map<std::string, std::uint64_t> functionNames;
    for (const auto& def : tr.functions().all()) {
      ++functionNames[def.name];
    }
    for (const auto& [name, n] : functionNames) {
      if (n > 1) {
        std::ostringstream os;
        os << "function name '" << name << "' defined " << n << " times";
        sink.report(Severity::Warning, os.str());
      }
    }
    std::map<std::string, std::uint64_t> metricNames;
    for (const auto& def : tr.metrics().all()) {
      ++metricNames[def.name];
    }
    for (const auto& [name, n] : metricNames) {
      if (n > 1) {
        std::ostringstream os;
        os << "metric name '" << name << "' defined " << n << " times";
        sink.report(Severity::Warning, os.str());
      }
    }
  }
};

/// Functions whose *name* clearly denotes MPI or OpenMP must carry the
/// matching paradigm, or the sync classifier will miss them and their wait
/// time pollutes SOS-times (paper Section V).
class SyncCoverageRule final : public Rule {
public:
  std::string_view id() const override { return "sync-coverage"; }
  std::string_view description() const override {
    return "function names that look like MPI/OpenMP must carry that paradigm";
  }
  void checkTrace(const RuleContext& context, Sink& sink) const override {
    const TraceView& tr = context.trace();
    const auto& defs = tr.functions().all();
    for (std::size_t f = 0; f < defs.size(); ++f) {
      const trace::FunctionDef& def = defs[f];
      const bool looksMpi = def.name.rfind("MPI_", 0) == 0;
      const bool looksOmp = def.name.rfind("omp_", 0) == 0 ||
                            def.name.rfind("!$omp", 0) == 0;
      if (looksMpi && def.paradigm != trace::Paradigm::MPI) {
        sink.report(Severity::Warning,
                    "function '" + def.name +
                        "' looks like MPI by name but has paradigm " +
                        trace::paradigmName(def.paradigm) +
                        "; the sync classifier will not subtract it "
                        "(wrong SOS-times)");
      } else if (looksOmp && def.paradigm != trace::Paradigm::OpenMP) {
        sink.report(Severity::Warning,
                    "function '" + def.name +
                        "' looks like OpenMP by name but has paradigm " +
                        trace::paradigmName(def.paradigm) +
                        "; the sync classifier will not subtract it "
                        "(wrong SOS-times)");
      }
    }
  }
};

/// The paper's dominant-function heuristic needs a candidate with at least
/// invocationMultiplier * p invocations; without one the segmentation (and
/// the whole variation analysis) is undefined.
class DominantEligibilityRule final : public Rule {
public:
  std::string_view id() const override { return "dominant-eligibility"; }
  std::string_view description() const override {
    return "a dominant-function candidate with >= multiplier*p invocations "
           "must exist";
  }
  void checkTrace(const RuleContext& context, Sink& sink) const override {
    const TraceView* tr = context.analysisTrace();
    if (tr == nullptr || tr->eventCount() == 0) {
      return;  // nothing analyzable; other rules report why
    }
    const analysis::DominantSelection* sel = context.dominantOrNull();
    if (sel == nullptr) {
      return;  // profile failed; structural rules carry the findings
    }
    if (!sel->hasDominant()) {
      std::ostringstream os;
      os << "no function reaches "
         << context.options().invocationMultiplier << " * " << tr->processCount()
         << " invocations; time-dominant segmentation is undefined";
      if (!sel->rejectedTopLevel.empty()) {
        os << " (best rejected candidate: '"
           << tr->functions().name(sel->rejectedTopLevel.front().function)
           << "' with " << sel->rejectedTopLevel.front().invocations
           << " invocation(s))";
      }
      sink.report(Severity::Warning, os.str());
    }
  }
};

/// Segment counts should agree across ranks; skew means ranks executed the
/// dominant function different numbers of times and per-iteration
/// statistics compare different iterations against each other.
class SegmentSkewRule final : public Rule {
public:
  std::string_view id() const override { return "segment-skew"; }
  std::string_view description() const override {
    return "segment counts of the dominant function should match across ranks";
  }
  bool readsCensus() const override { return true; }
  void checkTrace(const RuleContext& context, Sink& sink) const override {
    const TraceView* tr = context.analysisTrace();
    const analysis::DominantSelection* sel = context.dominantOrNull();
    if (tr == nullptr || sel == nullptr || !sel->hasDominant()) {
      return;  // dominant-eligibility reports the missing candidate
    }
    // The census covers trace(); its unquarantined ranks are exactly the
    // ranks of the analysis trace, and a dominant function means there is
    // at least one.
    const FunctionId f = sel->dominant().function;
    const TraceCensus& census = context.census();
    std::uint64_t minCount = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t maxCount = 0;
    for (ProcessId p = 0; p < census.processCount(); ++p) {
      if (!context.trace().isQuarantined(p)) {
        const std::uint64_t n = census.outermostInvocations(p, f);
        minCount = std::min(minCount, n);
        maxCount = std::max(maxCount, n);
      }
    }
    if (minCount != maxCount) {
      std::ostringstream os;
      os << "segment counts of dominant function '" << tr->functions().name(f)
         << "' differ across ranks (min " << minCount << ", max " << maxCount
         << "); per-iteration statistics will misalign";
      sink.report(Severity::Warning, os.str());
    }
  }
};

/// Zero-duration invocations: enter and leave carry the same timestamp.
/// Legal, but such regions vanish from every duration-based statistic and
/// usually indicate too-coarse timer resolution.
class ZeroDurationRule final : public Rule {
public:
  std::string_view id() const override { return "zero-duration"; }
  std::string_view description() const override {
    return "function invocations should have a non-zero duration";
  }
  void checkProcess(const RuleContext& context, const RankEvents& rank,
                    Sink& sink) const override {
    const TraceView& tr = context.trace();
    const trace::EventSpan events = rank.events();
    // Tolerant replay: ignore refs the structural rules already flag and
    // only pair a leave with a matching innermost enter.
    std::vector<std::pair<FunctionId, std::pair<trace::Timestamp, bool>>>
        stack;  // (function, (enter time, enter time was ordered))
    trace::Timestamp last = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      const bool ordered = i == 0 || e.time >= last;
      last = e.time;
      if (e.ref >= tr.functions().size() ||
          (e.kind != EventKind::Enter && e.kind != EventKind::Leave)) {
        continue;
      }
      if (e.kind == EventKind::Enter) {
        stack.push_back({e.ref, {e.time, ordered}});
      } else if (!stack.empty() && stack.back().first == e.ref) {
        // Only flag exact zero on a clean (ordered) pair: a backwards
        // clock is clock-monotonicity's finding, not this rule's.
        if (ordered && stack.back().second.second &&
            e.time == stack.back().second.first) {
          sink.reportAt(Severity::Info, i,
                        "zero-duration invocation of '" +
                            tr.functions().name(e.ref) + "'");
        }
        stack.pop_back();
      }
    }
  }
};

/// Quarantined ranks of a salvage load: analyses silently exclude them, so
/// surface each one, and escalate when nothing analyzable is left.
class QuarantineInteractionRule final : public Rule {
public:
  std::string_view id() const override { return "quarantine-interaction"; }
  std::string_view description() const override {
    return "salvage-quarantined ranks are excluded from analyses";
  }
  void checkTrace(const RuleContext& context, Sink& sink) const override {
    const TraceView& tr = context.trace();
    if (tr.quarantined().empty()) {
      return;
    }
    for (const trace::QuarantinedRank& q : tr.quarantined()) {
      std::ostringstream os;
      os << "rank quarantined by salvage load ("
         << errorCodeName(q.error) << "): " << q.eventsSalvaged
         << " event(s) salvaged, " << q.eventsDropped
         << " dropped; analyses exclude this rank";
      if (q.process < tr.processCount()) {
        sink.reportProcess(Severity::Warning, q.process, os.str());
      } else {
        os << " (quarantine metadata names nonexistent process "
           << q.process << ")";
        sink.report(Severity::Error, os.str());
      }
    }
    if (context.analysisTrace() == nullptr) {
      sink.report(Severity::Error,
                  "every rank is quarantined; nothing left to analyze");
    }
  }
};

// ---------------------------------------------------------------------------
// Cross-rank dependency rules (the happens-before graph detectors; see
// analysis/depgraph.hpp). All three share the context's one cached
// DepAnalysis and run in the serial global phase.

/// "NN.N%" of a share.
std::string sharePercent(double share) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << share * 100.0 << '%';
  return os.str();
}

std::string depFunctionName(const TraceView& tr, FunctionId f) {
  return f < tr.functions().size() ? tr.functions().name(f) : "(untracked)";
}

/// One rank owning more than rankShareThreshold of the critical path: the
/// run is serialized on it — speeding up any other rank cannot help.
class CriticalPathDominatedRankRule final : public Rule {
public:
  std::string_view id() const override {
    return "critical-path-dominated-rank";
  }
  std::string_view description() const override {
    return "no single rank should dominate the critical path";
  }
  void checkTrace(const RuleContext& context, Sink& sink) const override {
    const analysis::DepAnalysis* dep = context.depAnalysisOrNull();
    if (dep == nullptr) {
      return;  // nothing analyzable; other rules report why
    }
    for (const analysis::RankCriticality& r :
         dep->serialization.dominatedRanks) {
      std::ostringstream os;
      os << "rank " << r.process << " owns " << sharePercent(r.share)
         << " of the critical path (" << r.ticks
         << " tick(s)); the run is serialized on this rank (threshold "
         << sharePercent(
                context.options().serialization.rankShareThreshold)
         << ")";
      sink.reportProcess(Severity::Warning, r.process, os.str());
    }
  }
};

/// One (rank, function) region owning more than functionShareThreshold of
/// the critical path: the GAPP-style serialization bottleneck.
class SerializationBottleneckRule final : public Rule {
public:
  std::string_view id() const override { return "serialization-bottleneck"; }
  std::string_view description() const override {
    return "no single code region on one rank should own most of the "
           "critical path";
  }
  void checkTrace(const RuleContext& context, Sink& sink) const override {
    const analysis::DepAnalysis* dep = context.depAnalysisOrNull();
    if (dep == nullptr) {
      return;
    }
    const TraceView* tr = context.analysisTrace();
    for (const analysis::RegionCriticality& r :
         dep->serialization.bottlenecks) {
      std::ostringstream os;
      os << "'" << depFunctionName(*tr, r.function) << "' on rank "
         << r.process << " owns " << sharePercent(r.share)
         << " of the critical path (" << r.ticks
         << " tick(s)); this region serializes the run (threshold "
         << sharePercent(
                context.options().serialization.functionShareThreshold)
         << ")";
      sink.reportProcess(Severity::Warning, r.process, os.str());
    }
  }
};

/// A one-off delay whose late arrivals propagate rank-to-rank as a
/// wavefront (Afzal et al.): blame the origin, not the ranks that waited.
class IdleWavePropagationRule final : public Rule {
public:
  std::string_view id() const override { return "idle-wave-propagation"; }
  std::string_view description() const override {
    return "late arrivals should not propagate across ranks as an idle wave";
  }
  void checkTrace(const RuleContext& context, Sink& sink) const override {
    const analysis::DepAnalysis* dep = context.depAnalysisOrNull();
    if (dep == nullptr) {
      return;
    }
    for (const analysis::IdleWave& wave : dep->idleWaves.waves) {
      std::ostringstream os;
      os << "idle wave originating at rank " << wave.origin
         << " propagated across " << wave.distinctRanks << " rank(s) ("
         << wave.hops.size() << " late arrival(s), max wait "
         << wave.maxWaitTicks
         << " tick(s)); a delay on the origin rank desynchronized its "
            "neighborhood";
      sink.reportProcess(Severity::Warning, wave.origin, os.str());
    }
  }
};

}  // namespace

const RuleRegistry& RuleRegistry::builtin() {
  static const RuleRegistry registry = [] {
    RuleRegistry r;
    r.add(std::make_shared<ClockMonotonicityRule>());
    r.add(std::make_shared<StackBalanceRule>());
    r.add(std::make_shared<UndefinedFunctionRefRule>());
    r.add(std::make_shared<UndefinedMetricRefRule>());
    r.add(std::make_shared<MessageEndpointsRule>());
    r.add(std::make_shared<MessagePairingRule>());
    r.add(std::make_shared<DefinitionIntegrityRule>());
    r.add(std::make_shared<SyncCoverageRule>());
    r.add(std::make_shared<DominantEligibilityRule>());
    r.add(std::make_shared<SegmentSkewRule>());
    r.add(std::make_shared<ZeroDurationRule>());
    r.add(std::make_shared<QuarantineInteractionRule>());
    // The dependency-graph detectors append at the end: registry order is
    // part of the determinism contract, so new rules never reorder
    // existing findings.
    r.add(std::make_shared<CriticalPathDominatedRankRule>());
    r.add(std::make_shared<SerializationBottleneckRule>());
    r.add(std::make_shared<IdleWavePropagationRule>());
    return r;
  }();
  return registry;
}

}  // namespace perfvar::lint
