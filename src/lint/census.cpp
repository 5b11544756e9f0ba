/// \file census.cpp
/// lint::TraceCensus and the per-rank fold that takes it.

#include "lint/census.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace perfvar::lint {

using trace::Event;
using trace::EventKind;
using trace::FunctionId;
using trace::ProcessId;

const TraceCensus::Rank& TraceCensus::pinned(ProcessId p) const {
  PERFVAR_REQUIRE(p < processCount(), "census: invalid process id");
  const Rank& rank = ranks_[p];
  if (rank.pinFailed) {
    std::rethrow_exception(rank.error);
  }
  return rank;
}

std::span<const TraceCensus::Channel> TraceCensus::channels(
    ProcessId p) const {
  const Rank& rank = pinned(p);
  return {channels_.data() + rank.channelBegin, rank.channelCount};
}

std::span<const TraceCensus::Invocations> TraceCensus::functions(
    ProcessId p) const {
  const Rank& rank = pinned(p);
  return {functions_.data() + rank.functionBegin, rank.functionCount};
}

std::uint64_t TraceCensus::outermostInvocations(ProcessId p,
                                                FunctionId f) const {
  const std::span<const Invocations> records = functions(p);
  if (ranks_[p].error) {
    std::rethrow_exception(ranks_[p].error);  // the stream does not replay
  }
  const auto it = std::lower_bound(
      records.begin(), records.end(), f,
      [](const Invocations& r, FunctionId g) { return r.function < g; });
  return it != records.end() && it->function == f ? it->outermost : 0;
}

namespace {

/// A frame of the fold's call stack.
struct OpenFrame {
  FunctionId function;
  std::uint32_t at;  ///< a defined function's index in functions and open
  trace::Timestamp enterTime;
  bool ordered;  ///< the enter's timestamp did not decrease
};

}  // namespace

/// One worker's lookup tables, stack, and the records and findings of the
/// rank it is folding. Every slot is back to zero between ranks.
struct CensusBuilder::Scratch {
  std::vector<std::uint32_t> peerSlot;      ///< 1 + index in channels
  std::vector<std::uint32_t> functionSlot;  ///< 1 + index in functions
  std::vector<TraceCensus::Channel> channels;
  std::vector<TraceCensus::Invocations> functions;
  std::vector<std::uint32_t> open;  ///< strict frames, parallel to functions
  std::vector<OpenFrame> stack;  ///< see fold()
  std::vector<FoldFinding> findings;
};

CensusBuilder::CensusBuilder(const trace::TraceView& trace, TraceCensus& out)
    : trace_(trace), out_(out) {
  out_.ranks_.resize(trace.processCount());
}

CensusBuilder::~CensusBuilder() = default;

std::span<const FoldFinding> CensusBuilder::findings(const RankEvents& rank) {
  PERFVAR_REQUIRE(rank.fold_ != nullptr,
                  "lint census not taken: no enabled rule declares "
                  "Rule::readsCensus()");
  (void)rank.events();  // rethrows the pin's error
  return *rank.fold_;
}

CensusBuilder::Tally::Tally(CensusBuilder& builder) : builder_(builder) {
  {
    std::lock_guard<std::mutex> lock(builder_.mutex_);
    if (!builder_.idle_.empty()) {
      scratch_ = std::move(builder_.idle_.back());
      builder_.idle_.pop_back();
      return;
    }
  }
  scratch_ = std::make_unique<Scratch>();
  scratch_->peerSlot.assign(builder_.trace_.processCount(), 0);
  scratch_->functionSlot.assign(builder_.trace_.functions().size(), 0);
}

CensusBuilder::Tally::~Tally() {
  std::lock_guard<std::mutex> lock(builder_.mutex_);
  builder_.idle_.push_back(std::move(scratch_));
}

TraceCensus::Channel& CensusBuilder::Tally::channel(ProcessId peer) {
  std::uint32_t& slot = scratch_->peerSlot[peer];
  if (slot == 0) {
    scratch_->channels.push_back(TraceCensus::Channel{peer, 0, 0});
    slot = static_cast<std::uint32_t>(scratch_->channels.size());
  }
  return scratch_->channels[slot - 1];
}

std::uint32_t CensusBuilder::Tally::function(FunctionId f) {
  std::uint32_t& slot = scratch_->functionSlot[f];
  if (slot == 0) {
    scratch_->functions.push_back(TraceCensus::Invocations{f, 0});
    scratch_->open.push_back(0);
    slot = static_cast<std::uint32_t>(scratch_->functions.size());
  }
  return slot - 1;
}

void CensusBuilder::Tally::record(FoldCheck check, std::size_t event,
                                  std::string message) {
  scratch_->findings.push_back(FoldFinding{check, event, std::move(message)});
}

void CensusBuilder::Tally::add(RankEvents& rank) {
  process_ = rank.process();
  scratch_->findings.clear();
  rank.fold_ = &scratch_->findings;
  trace::EventSpan events;
  try {
    events = rank.events();
  } catch (...) {
    publish(std::current_exception(), true);
    return;
  }
  publish(fold(events), false);
}

/// The rank's one sweep. It pairs enters and leaves twice:
/// - strictly, as trace::replayEventsWith does: undefined refs pair too,
///   and the first leave that does not match the innermost enter, or a
///   frame open at the end, stops the pairing with the replay's error. A
///   function's open frames returning to zero completes one outermost
///   invocation, exactly as analysis::extractSegments counts;
/// - tolerantly, for stack-balance and zero-duration: undefined refs are
///   skipped (undefined-function-ref reports them), and only a leave
///   matching the innermost enter pops.
/// One stack serves both: while the strict pairing holds, the tolerant
/// stack is its defined frames; when it stops, the undefined frames are
/// dropped and the stack goes on as the tolerant one.
std::exception_ptr CensusBuilder::Tally::fold(trace::EventSpan events) {
  Scratch& s = *scratch_;
  const trace::FunctionRegistry& names = builder_.trace_.functions();
  const std::size_t functionCount = names.size();
  const std::size_t processCount = builder_.trace_.processCount();
  const std::size_t metricCount = builder_.trace_.metrics().size();
  std::vector<OpenFrame>& stack = s.stack;
  stack.clear();
  std::exception_ptr unpaired;
  const auto stopPairing = [&](const char* why) {
    // What trace::replayEventsWith throws for the stream.
    unpaired = std::make_exception_ptr(
        Error(std::string("perfvar: replay: ") + why));
    std::erase_if(stack, [&](const OpenFrame& frame) {
      return frame.function >= functionCount;
    });
  };
  trace::Timestamp last = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    const bool ordered = i == 0 || e.time >= last;
    last = e.time;
    if (!ordered) {
      record(FoldCheck::ClockMonotonicity, i, "timestamp decreases");
    }
    switch (e.kind) {
      case EventKind::Enter:
      case EventKind::Leave: {
        const bool enter = e.kind == EventKind::Enter;
        const bool defined = e.ref < functionCount;
        if (!defined) {
          record(FoldCheck::UndefinedFunctionRef, i,
                 enter ? "enter references undefined function"
                       : "leave references undefined function");
        }
        if (enter) {
          if (defined) {
            const std::uint32_t at = function(e.ref);
            ++s.open[at];
            stack.push_back(OpenFrame{e.ref, at, e.time, ordered});
          } else if (!unpaired) {
            stack.push_back(OpenFrame{e.ref, 0, e.time, ordered});
          }
          break;
        }
        if (!unpaired && (stack.empty() || stack.back().function != e.ref)) {
          stopPairing("unbalanced enter/leave");
        }
        if (!defined) {
          if (!unpaired) {
            stack.pop_back();
          }
          break;
        }
        if (stack.empty()) {
          function(e.ref);
          record(FoldCheck::StackBalance, i, "leave without matching enter");
        } else if (stack.back().function != e.ref) {
          function(e.ref);
          record(FoldCheck::StackBalance, i,
                 "leave of '" + names.name(e.ref) +
                     "' does not match innermost enter '" +
                     names.name(stack.back().function) + "'");
        } else {
          // Only exact zero on a clean (ordered) pair: a backwards clock
          // is clock-monotonicity's finding, not zero-duration's.
          const OpenFrame& open = stack.back();
          if (ordered && open.ordered && e.time == open.enterTime) {
            record(FoldCheck::ZeroDuration, i,
                   "zero-duration invocation of '" + names.name(e.ref) + "'");
          }
          if (--s.open[open.at] == 0) {
            ++s.functions[open.at].outermost;
          }
          stack.pop_back();
        }
        break;
      }
      case EventKind::MpiSend:
      case EventKind::MpiRecv:
        if (e.ref >= processCount) {
          record(FoldCheck::MessageEndpoints, i,
                 "message references undefined peer process");
        } else if (e.ref == process_) {
          record(FoldCheck::MessageEndpoints, i, "message to/from self");
        } else {
          TraceCensus::Channel& c = channel(static_cast<ProcessId>(e.ref));
          ++(e.kind == EventKind::MpiSend ? c.sends : c.recvs);
        }
        break;
      case EventKind::Metric:
        if (e.ref >= metricCount) {
          record(FoldCheck::UndefinedMetricRef, i,
                 "metric sample references undefined metric");
        }
        break;
    }
  }
  if (!unpaired && !stack.empty()) {
    stopPairing("unclosed frames at stream end");
  }
  if (!stack.empty()) {
    record(FoldCheck::StackBalance, events.size(),
           std::to_string(stack.size()) +
               " unclosed enter frame(s), innermost '" +
               names.name(stack.back().function) + "'");
  }
  return unpaired;
}

void CensusBuilder::Tally::publish(std::exception_ptr error, bool pinFailed) {
  std::vector<TraceCensus::Channel>& channels = scratch_->channels;
  std::vector<TraceCensus::Invocations>& functions = scratch_->functions;
  for (const TraceCensus::Channel& c : channels) {
    scratch_->peerSlot[c.peer] = 0;
  }
  for (const TraceCensus::Invocations& f : functions) {
    scratch_->functionSlot[f.function] = 0;
  }
  std::sort(channels.begin(), channels.end(),
            [](const TraceCensus::Channel& a, const TraceCensus::Channel& b) {
              return a.peer < b.peer;
            });
  std::sort(functions.begin(), functions.end(),
            [](const TraceCensus::Invocations& a,
               const TraceCensus::Invocations& b) {
              return a.function < b.function;
            });
  {
    std::lock_guard<std::mutex> lock(builder_.mutex_);
    TraceCensus& out = builder_.out_;
    out.ranks_[process_] = TraceCensus::Rank{
        out.channels_.size(), out.functions_.size(),
        static_cast<std::uint32_t>(channels.size()),
        static_cast<std::uint32_t>(functions.size()), std::move(error),
        pinFailed};
    out.channels_.insert(out.channels_.end(), channels.begin(),
                         channels.end());
    out.functions_.insert(out.functions_.end(), functions.begin(),
                          functions.end());
  }
  channels.clear();
  functions.clear();
  scratch_->open.clear();
}

}  // namespace perfvar::lint
