/// \file census.cpp
/// lint::TraceCensus and its CensusBuilder.

#include "lint/census.hpp"

#include <algorithm>
#include <utility>

#include "trace/replay.hpp"
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

/// One worker's lookup tables and the records of the rank it is
/// tallying. Every slot is back to zero between ranks.
struct CensusBuilder::Scratch {
  std::vector<std::uint32_t> peerSlot;      ///< 1 + index in channels
  std::vector<std::uint32_t> functionSlot;  ///< 1 + index in functions
  std::vector<std::uint32_t> open;          ///< open frames per function
  std::vector<TraceCensus::Channel> channels;
  std::vector<TraceCensus::Invocations> functions;
};

CensusBuilder::CensusBuilder(const trace::TraceView& trace, TraceCensus& out)
    : processCount_(trace.processCount()),
      functionCount_(trace.functions().size()),
      out_(out) {
  out_.ranks_.resize(processCount_);
}

CensusBuilder::~CensusBuilder() = default;

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
  scratch_->peerSlot.assign(builder_.processCount_, 0);
  scratch_->functionSlot.assign(builder_.functionCount_, 0);
  scratch_->open.assign(builder_.functionCount_, 0);
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

TraceCensus::Invocations& CensusBuilder::Tally::function(FunctionId f) {
  std::uint32_t& slot = scratch_->functionSlot[f];
  if (slot == 0) {
    scratch_->functions.push_back(TraceCensus::Invocations{f, 0});
    slot = static_cast<std::uint32_t>(scratch_->functions.size());
  }
  return scratch_->functions[slot - 1];
}

void CensusBuilder::Tally::message(bool isSend, const Event& e) {
  if (e.ref >= builder_.processCount_ || e.ref == process_) {
    return;  // message-endpoints reports these
  }
  TraceCensus::Channel& c = channel(static_cast<ProcessId>(e.ref));
  ++(isSend ? c.sends : c.recvs);
}

void CensusBuilder::Tally::resetSlots() {
  for (const TraceCensus::Channel& c : scratch_->channels) {
    scratch_->peerSlot[c.peer] = 0;
  }
  for (const TraceCensus::Invocations& f : scratch_->functions) {
    scratch_->functionSlot[f.function] = 0;
    scratch_->open[f.function] = 0;
  }
}

/// The census' replay visitor: trace::replayEventsWith pairs the leaves,
/// so a function's open-frame count returning to zero completes one
/// outermost invocation, exactly as analysis::extractSegments counts.
struct CensusBuilder::Tally::Replay {
  Tally& tally;
  std::size_t functionCount;

  void onEnter(FunctionId f, trace::Timestamp, std::size_t) {
    if (f < functionCount) {
      tally.function(f);
      ++tally.scratch_->open[f];
    }
  }
  void onLeave(const trace::Frame& frame) {
    if (frame.function < functionCount &&
        --tally.scratch_->open[frame.function] == 0) {
      ++tally.function(frame.function).outermost;
    }
  }
  void onMessage(bool isSend, const Event& e) { tally.message(isSend, e); }
  void onMetric(const Event&, std::size_t) {}
};

void CensusBuilder::Tally::add(const RankEvents& rank) {
  process_ = rank.process();
  std::exception_ptr error;
  bool pinned = false;
  trace::EventSpan events;
  try {
    events = rank.events();
    pinned = true;
    trace::replayEventsWith(events, Replay{*this, builder_.functionCount_});
  } catch (...) {
    error = std::current_exception();
  }
  if (error && pinned) {
    // The stream does not replay: keep the error for the outermost
    // counts and tally the references and messages without the pairing.
    resetSlots();
    scratch_->channels.clear();
    scratch_->functions.clear();
    for (const Event& e : events) {
      if (e.kind == EventKind::Enter || e.kind == EventKind::Leave) {
        if (e.ref < builder_.functionCount_) {
          function(e.ref);
        }
      } else if (e.kind == EventKind::MpiSend ||
                 e.kind == EventKind::MpiRecv) {
        message(e.kind == EventKind::MpiSend, e);
      }
    }
  }
  resetSlots();
  std::vector<TraceCensus::Channel>& channels = scratch_->channels;
  std::vector<TraceCensus::Invocations>& functions = scratch_->functions;
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
        static_cast<std::uint32_t>(functions.size()), error, !pinned};
    out.channels_.insert(out.channels_.end(), channels.begin(),
                         channels.end());
    out.functions_.insert(out.functions_.end(), functions.begin(),
                          functions.end());
  }
  channels.clear();
  functions.clear();
}

}  // namespace perfvar::lint
