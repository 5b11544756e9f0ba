#include "sim/simulator.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <vector>

#include "trace/builder.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfvar::sim {

namespace {

enum class BlockKind : std::uint8_t { None, Collective, Recv, Wait };

/// State of a nonblocking request.
struct Request {
  bool isRecv = false;
  std::uint32_t peer = 0;
  std::uint32_t tag = 0;
};

struct CollectiveInstance {
  OpKind kind = OpKind::Barrier;
  trace::FunctionId fn = trace::kInvalidFunction;
  std::uint64_t bytes = 0;
  std::uint32_t root = 0;
  std::size_t arrived = 0;
  std::vector<double> arrival;  ///< per rank; NaN until arrived
  bool initialized = false;
};

struct Message {
  double arrival = 0.0;
  std::uint64_t bytes = 0;
};

/// Full simulator state; the public simulate() drives it.
class Engine {
public:
  Engine(const Program& program, const SimOptions& options, SimReport* report)
      : program_(program),
        options_(options),
        report_(report),
        builder_(program.ranks, options.resolution) {
    // Mirror the program's definitions so function/metric ids coincide.
    for (const auto& def : program.functions.all()) {
      builder_.defineFunction(def.name, def.group, def.paradigm);
    }
    for (const auto& def : program.metrics.all()) {
      builder_.defineMetric(def.name, def.unit, def.mode);
    }
    if (options.counters.enableCycles) {
      cyclesMetric_ = builder_.defineMetric(options.counters.cyclesMetricName,
                                            "cycles");
    }
    if (options.counters.enableFpExceptions) {
      fpMetric_ = builder_.defineMetric(
          options.counters.fpExceptionsMetricName, "exceptions");
    }
    const std::size_t nMetrics =
        program.metrics.size() + (cyclesMetric_ != trace::kInvalidMetric) +
        (fpMetric_ != trace::kInvalidMetric);

    const std::size_t ranks = program.ranks;
    pc_.assign(ranks, 0);
    clock_.assign(ranks, 0.0);
    requests_.resize(ranks);
    blocked_.assign(ranks, BlockKind::None);
    blockedSeq_.assign(ranks, 0);
    collSeq_.assign(ranks, 0);
    cumulative_.assign(ranks, std::vector<double>(nMetrics, 0.0));
    rngs_.reserve(ranks);
    Rng master(options.noise.seed);
    for (std::size_t r = 0; r < ranks; ++r) {
      rngs_.push_back(master.split());
    }
  }

  trace::Trace run() {
    const std::size_t ranks = program_.ranks;
    while (true) {
      bool progress = false;
      bool allDone = true;
      for (std::uint32_t r = 0; r < ranks; ++r) {
        progress |= runRank(r);
        if (!done(r)) {
          allDone = false;
        }
      }
      if (allDone) {
        break;
      }
      if (!progress) {
        throwDeadlock();
      }
    }
    if (report_ != nullptr) {
      report_->makespan = *std::max_element(clock_.begin(), clock_.end());
      report_->messages = deliveredMessages_;
      report_->collectives = completedCollectives_;
    }
    trace::Trace tr = builder_.finish();
    if (report_ != nullptr) {
      report_->events = tr.eventCount();
    }
    return tr;
  }

private:
  bool done(std::uint32_t r) const {
    return blocked_[r] == BlockKind::None &&
           pc_[r] >= program_.ops[r].size();
  }

  trace::Timestamp tick(double seconds) const {
    return trace::secondsToTicks(seconds, options_.resolution);
  }

  [[noreturn]] void throwDeadlock() const {
    std::ostringstream os;
    os << "simulation deadlock:";
    for (std::uint32_t r = 0; r < program_.ranks; ++r) {
      if (done(r)) {
        continue;
      }
      os << "\n  rank " << r << " ";
      switch (blocked_[r]) {
        case BlockKind::Collective:
          os << "waiting in collective #" << blockedSeq_[r];
          break;
        case BlockKind::Recv: {
          const Op& op = program_.ops[r][pc_[r]];
          os << "waiting for message from rank " << op.peer << " tag "
             << op.tag;
          break;
        }
        case BlockKind::Wait: {
          const Op& op = program_.ops[r][pc_[r]];
          os << "waiting on request #" << op.request;
          break;
        }
        case BlockKind::None:
          os << "runnable (scheduler bug)";
          break;
      }
    }
    throw Error(os.str());
  }

  /// Emit a metric sample if the cumulative value changed since the last
  /// emission for that metric on that rank.
  void emitMetricIfChanged(std::uint32_t r, double atSeconds,
                           trace::MetricId m) {
    if (m == trace::kInvalidMetric) {
      return;
    }
    const double value = cumulative_[r][m];
    auto& emitted = lastEmitted_[{r, m}];
    if (value != emitted) {
      builder_.metric(r, tick(atSeconds), m, value);
      emitted = value;
    }
  }

  void execCompute(std::uint32_t r, const Op& op) {
    const double factor = options_.noise.sigma > 0.0
                              ? rngs_[r].lognormalFactor(options_.noise.sigma)
                              : 1.0;
    const double busy = op.seconds * factor;
    const double wall = busy + op.osDelay;
    const double start = clock_[r];
    const double end = start + wall;
    builder_.enter(r, tick(start), op.fn);
    if (cyclesMetric_ != trace::kInvalidMetric && busy > 0.0) {
      cumulative_[r][cyclesMetric_] +=
          busy * options_.counters.clockGhz * 1e9;
      emitMetricIfChanged(r, end, cyclesMetric_);
    }
    if (fpMetric_ != trace::kInvalidMetric && op.fpExceptions != 0.0) {
      cumulative_[r][fpMetric_] += op.fpExceptions;
      emitMetricIfChanged(r, end, fpMetric_);
    }
    builder_.leave(r, tick(end), op.fn);
    clock_[r] = end;
  }

  void execSend(std::uint32_t r, const Op& op) {
    const double start = clock_[r];
    const double busy = options_.network.sendBusyTime(op.bytes);
    builder_.enter(r, tick(start), op.fn);
    builder_.mpiSend(r, tick(start), op.peer, op.tag, op.bytes);
    builder_.leave(r, tick(start + busy), op.fn);
    clock_[r] = start + busy;
    messages_[{r, op.peer, op.tag}].push_back(
        Message{start + options_.network.messageDelay(op.bytes), op.bytes});
  }

  void execIsend(std::uint32_t r, const Op& op) {
    const double start = clock_[r];
    builder_.enter(r, tick(start), op.fn);
    builder_.mpiSend(r, tick(start), op.peer, op.tag, op.bytes);
    builder_.leave(r, tick(start + options_.network.sendOverhead), op.fn);
    clock_[r] = start + options_.network.sendOverhead;
    messages_[{r, op.peer, op.tag}].push_back(
        Message{start + options_.network.messageDelay(op.bytes), op.bytes});
    setRequest(r, op.request, Request{false, op.peer, op.tag});
  }

  void execIrecv(std::uint32_t r, const Op& op) {
    const double start = clock_[r];
    builder_.enter(r, tick(start), op.fn);
    builder_.leave(r, tick(start + options_.network.recvOverhead), op.fn);
    clock_[r] = start + options_.network.recvOverhead;
    setRequest(r, op.request, Request{true, op.peer, op.tag});
  }

  void setRequest(std::uint32_t r, std::uint32_t id, Request request) {
    if (requests_[r].size() <= id) {
      requests_[r].resize(id + 1);
    }
    requests_[r][id] = request;
  }

  /// Try to complete a Wait op; returns false if the awaited message has
  /// not been sent yet.
  bool tryWait(std::uint32_t r, const Op& op) {
    PERFVAR_REQUIRE(op.request < requests_[r].size(),
                    "wait on unposted request");
    const Request& req = requests_[r][op.request];
    const double start = clock_[r];
    if (!req.isRecv) {
      // Eager send: already complete; the wait costs nothing.
      builder_.enter(r, tick(start), op.fn);
      builder_.leave(r, tick(start), op.fn);
      return true;
    }
    const auto key = std::make_tuple(req.peer, r, req.tag);
    const auto it = messages_.find(key);
    if (it == messages_.end() || it->second.empty()) {
      return false;
    }
    const Message msg = it->second.front();
    it->second.pop_front();
    const double completion = std::max(start, msg.arrival);
    builder_.enter(r, tick(start), op.fn);
    builder_.mpiRecv(r, tick(completion), req.peer, req.tag, msg.bytes);
    builder_.leave(r, tick(completion), op.fn);
    clock_[r] = completion;
    ++deliveredMessages_;
    return true;
  }

  /// Try to complete a receive; returns false if no message is available.
  bool tryRecv(std::uint32_t r, const Op& op) {
    const auto key = std::make_tuple(op.peer, r, op.tag);
    const auto it = messages_.find(key);
    if (it == messages_.end() || it->second.empty()) {
      return false;
    }
    const Message msg = it->second.front();
    it->second.pop_front();
    const double start = clock_[r];
    const double completion =
        std::max(start + options_.network.recvOverhead, msg.arrival);
    builder_.enter(r, tick(start), op.fn);
    builder_.mpiRecv(r, tick(completion), op.peer, op.tag, msg.bytes);
    builder_.leave(r, tick(completion), op.fn);
    clock_[r] = completion;
    ++deliveredMessages_;
    return true;
  }

  /// Register arrival at a collective; resolves it when complete.
  void arriveCollective(std::uint32_t r, const Op& op) {
    const std::size_t seq = collSeq_[r]++;
    CollectiveInstance& inst = collectives_[seq];
    if (!inst.initialized) {
      inst.kind = op.kind;
      inst.fn = op.fn;
      inst.bytes = op.bytes;
      inst.root = op.peer;
      inst.arrival.assign(program_.ranks, 0.0);
      inst.initialized = true;
    } else {
      PERFVAR_REQUIRE(inst.kind == op.kind && inst.fn == op.fn,
                      "collective mismatch: ranks issue different "
                      "collectives at the same sequence position");
    }
    inst.arrival[r] = clock_[r];
    ++inst.arrived;
    blocked_[r] = BlockKind::Collective;
    blockedSeq_[r] = seq;
    if (inst.arrived == program_.ranks) {
      resolveCollective(seq, inst);
    }
  }

  void resolveCollective(std::size_t seq, CollectiveInstance& inst) {
    const double last =
        *std::max_element(inst.arrival.begin(), inst.arrival.end());
    const std::size_t ranks = program_.ranks;
    for (std::uint32_t r = 0; r < ranks; ++r) {
      double completion = 0.0;
      switch (inst.kind) {
        case OpKind::Barrier:
          completion = last + options_.network.barrierCost(ranks);
          break;
        case OpKind::Allreduce:
          completion = last + options_.network.allreduceCost(ranks,
                                                             inst.bytes);
          break;
        case OpKind::Bcast:
          completion = std::max(
              inst.arrival[r],
              inst.arrival[inst.root] +
                  options_.network.bcastCost(ranks, inst.bytes));
          break;
        default:
          PERFVAR_ASSERT(false, "invalid collective kind");
      }
      builder_.enter(r, tick(inst.arrival[r]), inst.fn);
      builder_.leave(r, tick(completion), inst.fn);
      clock_[r] = completion;
      PERFVAR_ASSERT(blocked_[r] == BlockKind::Collective &&
                         blockedSeq_[r] == seq,
                     "collective resolution out of order");
      blocked_[r] = BlockKind::None;
      ++pc_[r];
    }
    ++completedCollectives_;
    collectives_.erase(seq);
  }

  /// Execute ops of rank r until it blocks or finishes.
  /// Returns whether any op made progress.
  bool runRank(std::uint32_t r) {
    bool progress = false;
    while (true) {
      if (blocked_[r] == BlockKind::Collective) {
        return progress;  // resolved by the last arriving rank
      }
      if (blocked_[r] == BlockKind::Recv || blocked_[r] == BlockKind::Wait) {
        const Op& op = program_.ops[r][pc_[r]];
        const bool done = blocked_[r] == BlockKind::Recv ? tryRecv(r, op)
                                                         : tryWait(r, op);
        if (!done) {
          return progress;
        }
        blocked_[r] = BlockKind::None;
        ++pc_[r];
        progress = true;
        continue;
      }
      if (pc_[r] >= program_.ops[r].size()) {
        return progress;
      }
      const Op& op = program_.ops[r][pc_[r]];
      switch (op.kind) {
        case OpKind::Compute:
          execCompute(r, op);
          ++pc_[r];
          break;
        case OpKind::EnterRegion:
          builder_.enter(r, tick(clock_[r]), op.fn);
          ++pc_[r];
          break;
        case OpKind::LeaveRegion:
          builder_.leave(r, tick(clock_[r]), op.fn);
          ++pc_[r];
          break;
        case OpKind::Send:
          execSend(r, op);
          ++pc_[r];
          break;
        case OpKind::Recv:
          if (tryRecv(r, op)) {
            ++pc_[r];
          } else {
            blocked_[r] = BlockKind::Recv;
            return true;  // becoming blocked still counts as progress once
          }
          break;
        case OpKind::Isend:
          execIsend(r, op);
          ++pc_[r];
          break;
        case OpKind::Irecv:
          execIrecv(r, op);
          ++pc_[r];
          break;
        case OpKind::Wait:
          if (tryWait(r, op)) {
            ++pc_[r];
          } else {
            blocked_[r] = BlockKind::Wait;
            return true;
          }
          break;
        case OpKind::Barrier:
        case OpKind::Allreduce:
        case OpKind::Bcast:
          arriveCollective(r, op);
          // pc is advanced by resolveCollective (for all ranks at once);
          // if this rank was the last arrival it is already unblocked.
          if (blocked_[r] == BlockKind::Collective) {
            return true;
          }
          break;
      }
      progress = true;
    }
  }

  const Program& program_;
  const SimOptions& options_;
  SimReport* report_;
  trace::TraceBuilder builder_;

  trace::MetricId cyclesMetric_ = trace::kInvalidMetric;
  trace::MetricId fpMetric_ = trace::kInvalidMetric;

  std::vector<std::size_t> pc_;
  std::vector<double> clock_;
  std::vector<BlockKind> blocked_;
  std::vector<std::size_t> blockedSeq_;
  std::vector<std::size_t> collSeq_;
  std::vector<std::vector<Request>> requests_;  ///< [rank][requestId]
  std::vector<std::vector<double>> cumulative_;  ///< [rank][metric]
  std::map<std::pair<std::uint32_t, trace::MetricId>, double> lastEmitted_;
  std::vector<Rng> rngs_;

  std::map<std::size_t, CollectiveInstance> collectives_;
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
           std::deque<Message>>
      messages_;
  std::size_t deliveredMessages_ = 0;
  std::size_t completedCollectives_ = 0;
};

}  // namespace

trace::Trace simulate(const Program& program, const SimOptions& options,
                      SimReport* report) {
  PERFVAR_REQUIRE(program.ranks >= 1, "program has no ranks");
  Engine engine(program, options, report);
  return engine.run();
}

}  // namespace perfvar::sim
