/// \file depgraph.cpp
/// Happens-before graph construction and the three dependency detectors
/// (see depgraph.hpp for the model and the determinism/robustness
/// contracts).

#include "analysis/depgraph.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "util/error.hpp"
#include "util/json_writer.hpp"
#include "util/thread_pool.hpp"

namespace perfvar::analysis {

namespace {

/// One open frame of the tolerant stack replay.
struct Frame {
  trace::FunctionId function = trace::kInvalidFunction;
  trace::Timestamp enter = 0;
  bool sync = false;
};

/// Nodes and attribution of one contiguous rank range, in rank order.
/// DepNode::attrBegin indexes the range's own `attribution`. Each rank's
/// nodes are a pure function of (rank stream, sync mask), so where the
/// range boundaries fall never changes the graph.
struct RangeBuffer {
  std::vector<DepNode> nodes;
  std::vector<FunctionTicks> attribution;
};

/// Accumulate `ticks` of exclusive time in `function` into the pending
/// attribution list (insertion order; intervals touch few functions, so
/// the linear scan beats a map).
void addAttribution(std::vector<FunctionTicks>& pending,
                    trace::FunctionId function, std::uint64_t ticks) {
  if (ticks == 0) {
    return;
  }
  for (FunctionTicks& entry : pending) {
    if (entry.function == function) {
      entry.ticks += ticks;
      return;
    }
  }
  pending.push_back(FunctionTicks{function, ticks});
}

/// Append the nodes of one rank to `out` and return how many: tolerant
/// enter/leave replay (hostile streams never throw — unmatched leaves and
/// dangling refs degrade to "outside any function"), per-function
/// attribution between consecutive nodes, and the waitStart of receives
/// from the innermost enclosing sync-classified region. `stack` and
/// `pending` are scratch, reused across the ranks of a range.
std::size_t extractRank(const trace::TraceView& view, trace::ProcessId rank,
                        std::size_t functionCount,
                        const std::vector<bool>& syncMask,
                        std::vector<Frame>& stack,
                        std::vector<FunctionTicks>& pending,
                        RangeBuffer& out) {
  const trace::RankPin pin = view.rank(rank);
  const trace::EventSpan events = pin.events();
  const std::size_t firstNode = out.nodes.size();

  stack.clear();
  pending.clear();
  const trace::Timestamp first = events.size() > 0 ? events[0].time : 0;

  const auto flushNode = [&](DepNode node) {
    node.process = rank;
    // The slice must stay addressable through a uint32 offset; a pool
    // beyond that (a >4G-entry trace) drops further attribution rather
    // than failing — the robustness contract over precision.
    const std::size_t attrBegin = out.attribution.size();
    if (attrBegin + pending.size() <=
        std::numeric_limits<std::uint32_t>::max()) {
      node.attrBegin = static_cast<std::uint32_t>(attrBegin);
      node.attrCount = static_cast<std::uint32_t>(pending.size());
    }
    out.attribution.insert(out.attribution.end(), pending.begin(),
                           pending.end());
    pending.clear();
    out.nodes.push_back(node);
  };

  DepNode start;
  start.kind = DepNodeKind::RankStart;
  start.time = start.waitStart = first;
  flushNode(start);

  trace::Timestamp cursor = first;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const trace::Event& e = events[i];
    const trace::Timestamp t = e.time;
    if (t > cursor) {
      const trace::FunctionId top =
          stack.empty() ? trace::kInvalidFunction : stack.back().function;
      addAttribution(pending, top, t - cursor);
      cursor = t;
    }
    switch (e.kind) {
      case trace::EventKind::Enter: {
        Frame frame;
        frame.function = e.ref < functionCount ? e.ref
                                               : trace::kInvalidFunction;
        frame.enter = t;
        frame.sync = frame.function != trace::kInvalidFunction &&
                     syncMask[frame.function];
        stack.push_back(frame);
        break;
      }
      case trace::EventKind::Leave:
        if (!stack.empty()) {
          stack.pop_back();
        }
        break;
      case trace::EventKind::MpiSend:
      case trace::EventKind::MpiRecv: {
        DepNode node;
        node.kind = e.kind == trace::EventKind::MpiSend ? DepNodeKind::Send
                                                        : DepNodeKind::Recv;
        node.time = t;
        node.eventIndex = static_cast<std::int64_t>(i);
        node.peer = e.ref;
        node.tag = e.aux;
        node.function =
            stack.empty() ? trace::kInvalidFunction : stack.back().function;
        node.waitStart = t;
        if (node.kind == DepNodeKind::Recv) {
          for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            if (it->sync) {
              node.waitStart = std::min(it->enter, t);
              break;
            }
          }
        }
        flushNode(node);
        break;
      }
      case trace::EventKind::Metric:
        break;
    }
  }

  DepNode end;
  end.kind = DepNodeKind::RankEnd;
  end.time = end.waitStart = cursor;
  flushNode(end);
  return out.nodes.size() - firstNode;
}

/// Most elements a range reserves from its first rank: 64 MiB of nodes.
/// It bounds what an unrepresentative first rank (the master of a
/// master-worker trace) can over-reserve; past it the buffers double as
/// usual.
constexpr std::size_t kMaxRangeReserve = std::size_t{1} << 20;

/// Reserve a range's buffers once, after its first rank: the ranks of an
/// SPMD trace look alike, so the first rank times the range length comes
/// close to the final size, and one allocation replaces about twenty
/// doublings. Those doublings left enough freed heap behind that the
/// allocator handed it back to the OS after every build and the next
/// build faulted it in again. An estimate that falls short grows as usual.
void reserveRange(std::size_t ranks, RangeBuffer& range) {
  range.nodes.reserve(
      std::min(range.nodes.size() * ranks, kMaxRangeReserve));
  range.attribution.reserve(
      std::min(range.attribution.size() * ranks, kMaxRangeReserve));
}

/// One message node in its sender's bucket: `channel` is
/// receiver<<32 | tag, `node` is isRecv<<63 | node index.
struct MessageRecord {
  std::uint64_t channel;
  std::uint64_t node;
};

constexpr std::uint64_t kRecvBit = std::uint64_t{1} << 63;

/// splitmix64's finalizer: spreads the (receiver, tag) bits over the
/// open-addressing table.
std::uint64_t mixChannel(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Matching phase (serial, deterministic): FIFO per directed (sender,
/// receiver, tag) channel — the MPI non-overtaking guarantee. A channel's
/// sends all lie on the sender's rank and its receives on the receiver's,
/// each in stream order = node order, so the k-th send pairs with the
/// k-th receive. Valid message nodes are count-sorted by sender (stable in
/// node order) into one flat array. Inside a sender's bucket each record
/// gets its channel's slot from an open-addressing table, and a stable
/// counting sort by (slot, isRecv) puts every channel's sends, in node
/// order, just ahead of its receives, in node order. A bucket never holds
/// another sender's records, so two senders sharing (receiver, tag) stay
/// apart; the slot numbering changes no match and no counter.
void matchMessages(DepGraph& graph) {
  const std::size_t ranks = graph.processCount;
  const auto senderOf = [&](const DepNode& node) -> std::size_t {
    if (node.kind != DepNodeKind::Send && node.kind != DepNodeKind::Recv) {
      return ranks;
    }
    if (node.peer >= ranks || node.peer == node.process) {
      return ranks;
    }
    return node.kind == DepNodeKind::Send ? node.process : node.peer;
  };

  // bucketBegin[s + 1] counts sender s's messages, then prefix-sums to the
  // start offsets.
  std::vector<std::size_t> bucketBegin(ranks + 1, 0);
  std::uint64_t validSends = 0;
  for (const DepNode& node : graph.nodes) {
    if (node.kind != DepNodeKind::Send && node.kind != DepNodeKind::Recv) {
      continue;
    }
    const bool isSend = node.kind == DepNodeKind::Send;
    (isSend ? graph.stats.sendEvents : graph.stats.recvEvents) += 1;
    const std::size_t sender = senderOf(node);
    if (sender == ranks) {
      graph.stats.invalidEndpoints += 1;
    } else {
      bucketBegin[sender + 1] += 1;
      validSends += isSend ? 1 : 0;
    }
  }
  for (std::size_t s = 0; s < ranks; ++s) {
    bucketBegin[s + 1] += bucketBegin[s];
  }
  const std::uint64_t validRecvs = bucketBegin[ranks] - validSends;

  std::vector<MessageRecord> records(bucketBegin[ranks]);
  std::vector<std::size_t> cursor(bucketBegin.begin(), bucketBegin.end() - 1);
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    const DepNode& node = graph.nodes[i];
    const std::size_t sender = senderOf(node);
    if (sender == ranks) {
      continue;
    }
    const bool isRecv = node.kind == DepNodeKind::Recv;
    const std::uint64_t receiver = isRecv ? node.process : node.peer;
    records[cursor[sender]++] =
        MessageRecord{receiver << 32 | node.tag,
                      (isRecv ? kRecvBit : 0) | static_cast<std::uint64_t>(i)};
  }

  // Per-bucket scratch, reused: the channel table (slot + 1, 0 = empty),
  // each record's slot, the group offsets and the grouped node indices.
  std::vector<std::uint64_t> tableChannel;
  std::vector<std::size_t> tableSlot;
  std::vector<std::size_t> slotOf;
  std::vector<std::size_t> groupEnd;
  std::vector<std::size_t> grouped;
  for (std::size_t s = 0; s < ranks; ++s) {
    const MessageRecord* bucket = records.data() + bucketBegin[s];
    const std::size_t n = bucketBegin[s + 1] - bucketBegin[s];
    if (n < 2) {
      continue;  // nothing to pair
    }
    const std::size_t capacity = std::bit_ceil(2 * n);
    const std::size_t mask = capacity - 1;
    tableChannel.resize(capacity);
    tableSlot.assign(capacity, 0);
    slotOf.resize(n);
    std::size_t slots = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t channel = bucket[i].channel;
      std::size_t at = mixChannel(channel) & mask;
      while (tableSlot[at] != 0 && tableChannel[at] != channel) {
        at = (at + 1) & mask;
      }
      if (tableSlot[at] == 0) {
        tableChannel[at] = channel;
        tableSlot[at] = ++slots;
      }
      slotOf[i] = tableSlot[at] - 1;
    }

    // Stable counting sort by key 2 * slot + isRecv. After the placement
    // pass groupEnd[k] is the end of group k, and the start of group k + 1.
    const auto keyOf = [&](std::size_t i) {
      return 2 * slotOf[i] + ((bucket[i].node & kRecvBit) != 0 ? 1 : 0);
    };
    groupEnd.assign(2 * slots, 0);
    for (std::size_t i = 0; i < n; ++i) {
      groupEnd[keyOf(i)] += 1;
    }
    std::size_t offset = 0;
    for (std::size_t& count : groupEnd) {
      offset += std::exchange(count, offset);
    }
    grouped.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      grouped[groupEnd[keyOf(i)]++] = bucket[i].node & ~kRecvBit;
    }

    for (std::size_t c = 0; c < slots; ++c) {
      const std::size_t sendBegin = c == 0 ? 0 : groupEnd[2 * c - 1];
      const std::size_t recvBegin = groupEnd[2 * c];
      const std::size_t paired =
          std::min(recvBegin - sendBegin, groupEnd[2 * c + 1] - recvBegin);
      for (std::size_t k = 0; k < paired; ++k) {
        const std::size_t send = grouped[sendBegin + k];
        const std::size_t recv = grouped[recvBegin + k];
        graph.nodes[send].match = static_cast<std::int64_t>(recv);
        graph.nodes[recv].match = static_cast<std::int64_t>(send);
      }
      graph.stats.matchedPairs += paired;
    }
  }
  graph.stats.unmatchedSends = validSends - graph.stats.matchedPairs;
  graph.stats.unmatchedRecvs = validRecvs - graph.stats.matchedPairs;
}

}  // namespace

DepGraph buildDepGraph(const trace::TraceView& trace,
                       const DepGraphOptions& options) {
  DepGraph graph;
  graph.processCount = trace.processCount();
  graph.functionCount = trace.functions().size();

  const std::vector<bool> syncMask = options.sync.mask(trace);

  // Per-range phase: each parallelChunks range extracts its ranks into one
  // buffer, stored at the slot of its first rank (disjoint per range), and
  // each rank writes only its own node count.
  graph.rankNodes.resize(graph.processCount);
  std::vector<RangeBuffer> ranges(graph.processCount);
  std::unique_ptr<util::ThreadPool> owned;
  util::ThreadPool* pool =
      util::resolvePool(options.pool, options.threads, owned);
  util::parallelChunks(
      pool, graph.processCount, [&](std::size_t begin, std::size_t end) {
        RangeBuffer& range = ranges[begin];
        std::vector<Frame> stack;
        std::vector<FunctionTicks> pending;
        for (std::size_t p = begin; p < end; ++p) {
          graph.rankNodes[p].second =
              extractRank(trace, static_cast<trace::ProcessId>(p),
                          graph.functionCount, syncMask, stack, pending,
                          range);
          if (p == begin) {
            reserveRange(end - begin, range);
          }
        }
      });

  // Every rank has at least its two sentinels, so a non-empty buffer marks
  // the first rank of a range.
  struct RangeSlice {
    std::size_t rank = 0;
    std::size_t attrBase = 0;
  };
  std::vector<RangeSlice> slices;
  std::size_t totalNodes = 0;
  std::size_t totalAttr = 0;
  for (std::size_t p = 0; p < graph.processCount; ++p) {
    if (!ranges[p].nodes.empty()) {
      slices.push_back(RangeSlice{p, totalAttr});
      totalAttr += ranges[p].attribution.size();
    }
    const std::size_t count = graph.rankNodes[p].second;
    graph.rankNodes[p] = {totalNodes, totalNodes + count};
    totalNodes += count;
  }

  if (slices.size() == 1) {
    // One range covered every rank: its buffer already is the graph.
    graph.nodes = std::move(ranges[0].nodes);
    graph.attribution = std::move(ranges[0].attribution);
  } else if (!slices.empty()) {
    // Copy each range into its disjoint slice of the exact-size arrays,
    // rebasing the attribution offsets under the same uint32 rule as the
    // extraction.
    graph.nodes.resize(totalNodes);
    graph.attribution.resize(totalAttr);
    util::parallelChunks(
        pool, slices.size(), [&](std::size_t begin, std::size_t end) {
          for (std::size_t r = begin; r < end; ++r) {
            const RangeSlice slice = slices[r];
            RangeBuffer& range = ranges[slice.rank];
            DepNode* out =
                graph.nodes.data() + graph.rankNodes[slice.rank].first;
            for (DepNode node : range.nodes) {
              const std::size_t attrBegin = slice.attrBase + node.attrBegin;
              if (attrBegin + node.attrCount <=
                  std::numeric_limits<std::uint32_t>::max()) {
                node.attrBegin = static_cast<std::uint32_t>(attrBegin);
              } else {
                node.attrBegin = 0;
                node.attrCount = 0;
              }
              *out++ = node;
            }
            std::copy(range.attribution.begin(), range.attribution.end(),
                      graph.attribution.begin() +
                          static_cast<std::ptrdiff_t>(slice.attrBase));
            range = RangeBuffer{};  // release as we go; ranges can be large
          }
        });
  }

  // Trace extent from the sentinels (ranks with no events contribute the
  // empty [0, 0] span and are ignored).
  bool haveExtent = false;
  for (std::size_t p = 0; p < graph.processCount; ++p) {
    const auto [begin, end] = graph.rankNodes[p];
    if (end - begin <= 2 && graph.nodes[begin].time == graph.nodes[end - 1].time &&
        graph.nodes[begin].time == 0) {
      continue;
    }
    const trace::Timestamp s = graph.nodes[begin].time;
    const trace::Timestamp e = graph.nodes[end - 1].time;
    if (!haveExtent) {
      graph.startTime = s;
      graph.endTime = e;
      haveExtent = true;
    } else {
      graph.startTime = std::min(graph.startTime, s);
      graph.endTime = std::max(graph.endTime, e);
    }
  }

  matchMessages(graph);
  return graph;
}

CriticalPathResult extractCriticalPath(const DepGraph& graph) {
  CriticalPathResult result;
  result.rankTicks.assign(graph.processCount, 0);
  result.functionTicks.assign(graph.functionCount + 1, 0);
  if (graph.nodes.empty()) {
    return result;
  }

  // End of the path: the latest RankEnd sentinel (lowest rank on ties).
  std::int64_t end = -1;
  for (std::size_t p = 0; p < graph.processCount; ++p) {
    const auto [begin, rankEnd] = graph.rankNodes[p];
    if (begin == rankEnd) {
      continue;
    }
    const std::int64_t candidate = static_cast<std::int64_t>(rankEnd) - 1;
    if (end < 0 || graph.nodes[candidate].time > graph.nodes[end].time) {
      end = candidate;
    }
  }
  if (end < 0) {
    return result;
  }
  result.pathEnd = graph.nodes[end].time;
  result.endProcess = graph.nodes[end].process;
  result.pathStart = result.pathEnd;

  const auto attributeLocal = [&](const DepNode& node) {
    std::uint64_t local = 0;
    for (std::uint32_t a = 0; a < node.attrCount; ++a) {
      const FunctionTicks& entry = graph.attribution[node.attrBegin + a];
      const std::size_t bucket =
          entry.function < graph.functionCount
              ? static_cast<std::size_t>(entry.function)
              : graph.functionCount;
      result.functionTicks[bucket] += entry.ticks;
      local += entry.ticks;
    }
    if (node.process < graph.processCount) {
      result.rankTicks[node.process] += local;
    }
    return local;
  };

  // Backward walk: at every node follow the dependency that completed
  // last. The visited guard makes cyclic timestamps on hostile input
  // terminate (times are strictly decreasing on well-formed traces, so it
  // never fires there).
  std::vector<bool> visited(graph.nodes.size(), false);
  std::vector<CriticalPathStep> reversed;
  std::int64_t cur = end;
  while (cur >= 0) {
    if (visited[static_cast<std::size_t>(cur)]) {
      result.truncated = true;
      result.pathStart = graph.nodes[cur].time;
      break;
    }
    visited[static_cast<std::size_t>(cur)] = true;
    const DepNode& v = graph.nodes[cur];

    bool remote = false;
    // Nodes are grouped by rank, so the local predecessor is the previous
    // node unless this one opens its rank.
    std::int64_t pred = v.kind == DepNodeKind::RankStart ? -1 : cur - 1;
    if (v.kind == DepNodeKind::Recv && v.match >= 0 &&
        graph.nodes[v.match].time > v.waitStart) {
      // The message departed after the receiver was ready: the sender was
      // the binding dependency. Equal times prefer the local edge — a
      // total, thread-count-independent tie-break.
      remote = true;
      pred = v.match;
    }
    if (pred < 0) {
      result.pathStart = v.time;
      break;
    }

    const DepNode& u = graph.nodes[pred];
    CriticalPathStep step;
    step.node = cur;
    step.process = v.process;
    step.fromProcess = u.process;
    step.fromTime = u.time;
    step.toTime = v.time;
    step.remote = remote;
    if (remote) {
      result.remoteTicks += step.ticks();
    } else {
      attributeLocal(v);
    }
    reversed.push_back(step);
    cur = pred;
  }

  result.steps.assign(reversed.rbegin(), reversed.rend());
  result.accountedTicks = result.remoteTicks;
  for (const std::uint64_t t : result.rankTicks) {
    result.accountedTicks += t;
  }
  return result;
}

SerializationReport detectSerialization(const DepGraph& graph,
                                        const CriticalPathResult& path,
                                        const SerializationOptions& options) {
  SerializationReport report;
  report.accountedTicks = path.accountedTicks;
  const double denom =
      path.accountedTicks > 0 ? static_cast<double>(path.accountedTicks) : 1.0;
  report.remoteShare = static_cast<double>(path.remoteTicks) / denom;

  for (std::size_t p = 0; p < path.rankTicks.size(); ++p) {
    if (path.rankTicks[p] == 0) {
      continue;
    }
    RankCriticality entry;
    entry.process = static_cast<trace::ProcessId>(p);
    entry.ticks = path.rankTicks[p];
    entry.share = static_cast<double>(entry.ticks) / denom;
    report.ranks.push_back(entry);
  }
  std::sort(report.ranks.begin(), report.ranks.end(),
            [](const RankCriticality& a, const RankCriticality& b) {
              if (a.ticks != b.ticks) {
                return a.ticks > b.ticks;
              }
              return a.process < b.process;
            });

  // A path confined to one rank is indistinguishable from plain
  // longest-rank runtime: without a traversed cross-rank dependency the
  // per-rank share carries no serialization evidence (the variation
  // pipeline already covers per-rank imbalance). Genuine whole-run
  // serialization always ends with a late receive hopping onto the
  // culprit, so it spans at least two ranks.
  std::size_t pathRanks = 0;
  for (const std::uint64_t ticks : path.rankTicks) {
    pathRanks += ticks > 0;
  }
  const bool active = graph.processCount >= options.minProcesses &&
                      path.accountedTicks > 0 && pathRanks >= 2;
  if (active) {
    for (const RankCriticality& entry : report.ranks) {
      if (entry.share >= options.rankShareThreshold) {
        report.dominatedRanks.push_back(entry);
      }
    }
  }

  // (rank, function) regions: re-read the attribution slices of the local
  // steps; std::map keys give the deterministic accumulation order.
  std::map<std::pair<trace::ProcessId, trace::FunctionId>, std::uint64_t>
      regions;
  for (const CriticalPathStep& step : path.steps) {
    if (step.remote || step.node < 0) {
      continue;
    }
    const DepNode& node = graph.nodes[step.node];
    for (std::uint32_t a = 0; a < node.attrCount; ++a) {
      const FunctionTicks& entry = graph.attribution[node.attrBegin + a];
      const trace::FunctionId fn = entry.function < graph.functionCount
                                       ? entry.function
                                       : trace::kInvalidFunction;
      regions[{node.process, fn}] += entry.ticks;
    }
  }
  if (active) {
    for (const auto& [key, ticks] : regions) {
      const double share = static_cast<double>(ticks) / denom;
      if (share < options.functionShareThreshold) {
        continue;
      }
      RegionCriticality region;
      region.process = key.first;
      region.function = key.second;
      region.ticks = ticks;
      region.share = share;
      report.bottlenecks.push_back(region);
    }
    std::sort(report.bottlenecks.begin(), report.bottlenecks.end(),
              [](const RegionCriticality& a, const RegionCriticality& b) {
                if (a.ticks != b.ticks) {
                  return a.ticks > b.ticks;
                }
                if (a.process != b.process) {
                  return a.process < b.process;
                }
                return a.function < b.function;
              });
  }
  return report;
}

IdleWaveReport detectIdleWaves(const DepGraph& graph,
                               const IdleWaveOptions& options) {
  IdleWaveReport report;
  const std::uint64_t duration =
      graph.endTime > graph.startTime ? graph.endTime - graph.startTime : 0;
  std::uint64_t floor = options.minWaitTicks;
  if (options.minWaitShare > 0.0 && duration > 0) {
    const double relative = options.minWaitShare * static_cast<double>(duration);
    if (relative > static_cast<double>(floor)) {
      floor = static_cast<std::uint64_t>(relative);
    }
  }
  floor = std::max<std::uint64_t>(floor, 1);
  report.effectiveMinWaitTicks = floor;

  /// A receive that completed late because its matched send departed
  /// after the receiver was already waiting.
  struct Arrival {
    std::size_t node = 0;
    trace::Timestamp complete = 0;
    trace::Timestamp sendTime = 0;
    trace::Timestamp waitStart = 0;
    std::uint64_t wait = 0;
    trace::ProcessId rank = 0;
    trace::ProcessId from = 0;
  };
  std::vector<Arrival> arrivals;
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    const DepNode& v = graph.nodes[i];
    if (v.kind != DepNodeKind::Recv || v.match < 0) {
      continue;
    }
    const DepNode& u = graph.nodes[v.match];
    if (u.time <= v.waitStart || u.time - v.waitStart < floor) {
      continue;
    }
    Arrival a;
    a.node = i;
    a.complete = v.time;
    a.sendTime = u.time;
    a.waitStart = v.waitStart;
    a.wait = u.time - v.waitStart;
    a.rank = v.process;
    a.from = u.process;
    arrivals.push_back(a);
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              if (a.complete != b.complete) {
                return a.complete < b.complete;
              }
              if (a.rank != b.rank) {
                return a.rank < b.rank;
              }
              return a.node < b.node;
            });
  report.lateArrivals = arrivals.size();

  // Chain building, one sweep in completion order: an arrival whose
  // sender was itself delayed earlier joins the sender's wave; otherwise
  // the sender rank is a wave origin. Chains sharing an origin merge
  // (e.g. the two fronts of a stencil wave).
  struct WaveBuild {
    IdleWave wave;
    std::set<trace::ProcessId> ranks;
  };
  std::vector<WaveBuild> waves;
  std::map<trace::ProcessId, std::size_t> waveByOrigin;
  std::vector<std::vector<std::pair<trace::Timestamp, std::size_t>>> byRank(
      graph.processCount);
  for (const Arrival& a : arrivals) {
    std::size_t waveIndex;
    const auto& senderArrivals = byRank[a.from];
    // Latest processed late arrival on the sender before the send left.
    const auto it = std::upper_bound(
        senderArrivals.begin(), senderArrivals.end(),
        std::make_pair(a.sendTime,
                       std::numeric_limits<std::size_t>::max()));
    if (it != senderArrivals.begin()) {
      waveIndex = std::prev(it)->second;
    } else {
      const auto [originIt, created] =
          waveByOrigin.try_emplace(a.from, waves.size());
      if (created) {
        waves.emplace_back();
        waves.back().wave.origin = a.from;
        waves.back().wave.firstTime = a.waitStart;
        waves.back().wave.lastTime = a.complete;
        waves.back().ranks.insert(a.from);
      }
      waveIndex = originIt->second;
    }
    WaveBuild& build = waves[waveIndex];
    IdleWaveHop hop;
    hop.process = a.rank;
    hop.fromProcess = a.from;
    hop.waitStart = a.waitStart;
    hop.arriveTime = a.complete;
    hop.waitTicks = a.wait;
    build.wave.hops.push_back(hop);
    build.wave.firstTime = std::min(build.wave.firstTime, a.waitStart);
    build.wave.lastTime = std::max(build.wave.lastTime, a.complete);
    build.wave.maxWaitTicks = std::max(build.wave.maxWaitTicks, a.wait);
    build.ranks.insert(a.rank);
    byRank[a.rank].emplace_back(a.complete, waveIndex);
  }

  for (WaveBuild& build : waves) {
    build.wave.distinctRanks = build.ranks.size();
    if (build.wave.distinctRanks >= options.minRanks) {
      report.waves.push_back(std::move(build.wave));
    }
  }
  std::sort(report.waves.begin(), report.waves.end(),
            [](const IdleWave& a, const IdleWave& b) {
              if (a.firstTime != b.firstTime) {
                return a.firstTime < b.firstTime;
              }
              return a.origin < b.origin;
            });
  return report;
}

DepAnalysis analyzeDependencies(const trace::TraceView& trace,
                                const DepAnalysisOptions& options) {
  DepGraphOptions graphOptions;
  graphOptions.sync = options.sync;
  graphOptions.threads = options.threads;
  graphOptions.pool = options.pool;
  const DepGraph graph = buildDepGraph(trace, graphOptions);

  DepAnalysis analysis;
  analysis.processCount = graph.processCount;
  analysis.graphStats = graph.stats;
  analysis.criticalPath = extractCriticalPath(graph);
  analysis.serialization =
      detectSerialization(graph, analysis.criticalPath, options.serialization);
  analysis.idleWaves = detectIdleWaves(graph, options.idleWave);
  return analysis;
}

namespace {

/// "NN.N%" with one fixed decimal — snprintf so the bytes are independent
/// of stream state and locale.
std::string percent(double share) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", share * 100.0);
  return buf;
}

std::string functionLabel(const trace::TraceView& trace,
                          trace::FunctionId function) {
  if (function >= trace.functions().size()) {
    return "(untracked)";
  }
  return trace.functions().name(function);
}

void writeDepJson(const trace::TraceView& trace, const DepAnalysis& analysis,
                  std::ostream& out) {
  util::JsonWriter w(out);
  const CriticalPathResult& path = analysis.criticalPath;
  w.beginObject();
  w.key("dependency_analysis");
  w.beginObject();

  w.key("graph");
  w.beginObject();
  w.key("processes");
  w.value(static_cast<std::uint64_t>(analysis.processCount));
  w.key("sends");
  w.value(analysis.graphStats.sendEvents);
  w.key("recvs");
  w.value(analysis.graphStats.recvEvents);
  w.key("matched_pairs");
  w.value(analysis.graphStats.matchedPairs);
  w.key("unmatched_sends");
  w.value(analysis.graphStats.unmatchedSends);
  w.key("unmatched_recvs");
  w.value(analysis.graphStats.unmatchedRecvs);
  w.key("invalid_endpoints");
  w.value(analysis.graphStats.invalidEndpoints);
  w.endObject();

  w.key("critical_path");
  w.beginObject();
  w.key("start");
  w.value(path.pathStart);
  w.key("end");
  w.value(path.pathEnd);
  w.key("end_process");
  w.value(static_cast<std::uint64_t>(path.endProcess));
  w.key("accounted_ticks");
  w.value(path.accountedTicks);
  w.key("remote_ticks");
  w.value(path.remoteTicks);
  w.key("truncated");
  w.value(path.truncated);
  w.key("rank_ticks");
  w.beginArray();
  for (const std::uint64_t t : path.rankTicks) {
    w.value(t);
  }
  w.endArray();
  w.key("function_ticks");
  w.beginArray();
  for (std::size_t f = 0; f < path.functionTicks.size(); ++f) {
    if (path.functionTicks[f] == 0) {
      continue;
    }
    w.beginObject();
    w.key("function");
    w.value(functionLabel(trace, f + 1 == path.functionTicks.size()
                                     ? trace::kInvalidFunction
                                     : static_cast<trace::FunctionId>(f)));
    w.key("ticks");
    w.value(path.functionTicks[f]);
    w.endObject();
  }
  w.endArray();
  w.key("steps");
  w.beginArray();
  for (const CriticalPathStep& step : path.steps) {
    w.beginObject();
    w.key("kind");
    w.value(std::string(step.remote ? "remote" : "local"));
    w.key("from_process");
    w.value(static_cast<std::uint64_t>(step.fromProcess));
    w.key("process");
    w.value(static_cast<std::uint64_t>(step.process));
    w.key("from_time");
    w.value(step.fromTime);
    w.key("to_time");
    w.value(step.toTime);
    w.endObject();
  }
  w.endArray();
  w.endObject();

  const SerializationReport& ser = analysis.serialization;
  w.key("serialization");
  w.beginObject();
  w.key("remote_share");
  w.value(ser.remoteShare);
  w.key("ranks");
  w.beginArray();
  for (const RankCriticality& r : ser.ranks) {
    w.beginObject();
    w.key("process");
    w.value(static_cast<std::uint64_t>(r.process));
    w.key("ticks");
    w.value(r.ticks);
    w.key("share");
    w.value(r.share);
    w.endObject();
  }
  w.endArray();
  w.key("dominated_ranks");
  w.beginArray();
  for (const RankCriticality& r : ser.dominatedRanks) {
    w.value(static_cast<std::uint64_t>(r.process));
  }
  w.endArray();
  w.key("bottlenecks");
  w.beginArray();
  for (const RegionCriticality& r : ser.bottlenecks) {
    w.beginObject();
    w.key("process");
    w.value(static_cast<std::uint64_t>(r.process));
    w.key("function");
    w.value(functionLabel(trace, r.function));
    w.key("ticks");
    w.value(r.ticks);
    w.key("share");
    w.value(r.share);
    w.endObject();
  }
  w.endArray();
  w.endObject();

  const IdleWaveReport& waves = analysis.idleWaves;
  w.key("idle_waves");
  w.beginObject();
  w.key("late_arrivals");
  w.value(waves.lateArrivals);
  w.key("min_wait_ticks");
  w.value(waves.effectiveMinWaitTicks);
  w.key("waves");
  w.beginArray();
  for (const IdleWave& wave : waves.waves) {
    w.beginObject();
    w.key("origin");
    w.value(static_cast<std::uint64_t>(wave.origin));
    w.key("ranks");
    w.value(static_cast<std::uint64_t>(wave.distinctRanks));
    w.key("hops");
    w.value(static_cast<std::uint64_t>(wave.hops.size()));
    w.key("first_time");
    w.value(wave.firstTime);
    w.key("last_time");
    w.value(wave.lastTime);
    w.key("max_wait_ticks");
    w.value(wave.maxWaitTicks);
    w.endObject();
  }
  w.endArray();
  w.endObject();

  w.endObject();
  w.endObject();
  out << '\n';
}

void writeDepCsv(const DepAnalysis& analysis, std::ostream& out) {
  out << "step,kind,from_process,process,from_time,to_time,ticks\n";
  const CriticalPathResult& path = analysis.criticalPath;
  for (std::size_t i = 0; i < path.steps.size(); ++i) {
    const CriticalPathStep& step = path.steps[i];
    out << i << ',' << (step.remote ? "remote" : "local") << ','
        << step.fromProcess << ',' << step.process << ',' << step.fromTime
        << ',' << step.toTime << ',' << step.ticks() << '\n';
  }
}

}  // namespace

std::string formatDepAnalysis(const trace::TraceView& trace,
                              const DepAnalysis& analysis) {
  std::ostringstream os;
  const CriticalPathResult& path = analysis.criticalPath;
  const DepGraphStats& stats = analysis.graphStats;
  os << "dependency analysis: " << analysis.processCount << " process(es), "
     << stats.sendEvents << " send(s), " << stats.recvEvents << " recv(s), "
     << stats.matchedPairs << " matched pair(s)";
  if (stats.unmatchedSends + stats.unmatchedRecvs + stats.invalidEndpoints >
      0) {
    os << " (" << stats.unmatchedSends << " unmatched send(s), "
       << stats.unmatchedRecvs << " unmatched recv(s), "
       << stats.invalidEndpoints << " invalid endpoint(s))";
  }
  os << '\n';

  const std::uint64_t span =
      path.pathEnd > path.pathStart ? path.pathEnd - path.pathStart : 0;
  os << "critical path: " << span << " tick(s), ends on rank "
     << path.endProcess << ", " << path.steps.size() << " step(s), remote "
     << percent(path.accountedTicks > 0
                    ? static_cast<double>(path.remoteTicks) /
                          static_cast<double>(path.accountedTicks)
                    : 0.0)
     << '\n';
  if (path.truncated) {
    os << "  (walk truncated: cyclic timestamps; partial path)\n";
  }

  const SerializationReport& ser = analysis.serialization;
  os << "critical-path time by rank (top 8):\n";
  for (std::size_t i = 0; i < ser.ranks.size() && i < 8; ++i) {
    const RankCriticality& r = ser.ranks[i];
    os << "  rank " << r.process << ": " << r.ticks << " tick(s) ("
       << percent(r.share) << ")\n";
  }

  // Per-function ranking, descending ticks (ties: function id ascending).
  std::vector<std::pair<std::uint64_t, std::size_t>> byFunction;
  for (std::size_t f = 0; f < path.functionTicks.size(); ++f) {
    if (path.functionTicks[f] > 0) {
      byFunction.emplace_back(path.functionTicks[f], f);
    }
  }
  std::sort(byFunction.begin(), byFunction.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) {
                return a.first > b.first;
              }
              return a.second < b.second;
            });
  os << "critical-path time by function (top 8):\n";
  for (std::size_t i = 0; i < byFunction.size() && i < 8; ++i) {
    const auto [ticks, f] = byFunction[i];
    const trace::FunctionId fn = f + 1 == path.functionTicks.size()
                                     ? trace::kInvalidFunction
                                     : static_cast<trace::FunctionId>(f);
    os << "  " << functionLabel(trace, fn) << ": " << ticks << " tick(s) ("
       << percent(path.accountedTicks > 0
                      ? static_cast<double>(ticks) /
                            static_cast<double>(path.accountedTicks)
                      : 0.0)
       << ")\n";
  }

  os << "serialization: " << ser.dominatedRanks.size()
     << " dominated rank(s), " << ser.bottlenecks.size()
     << " bottleneck region(s)\n";
  for (const RankCriticality& r : ser.dominatedRanks) {
    os << "  dominated rank " << r.process << ": " << percent(r.share)
       << " of the critical path\n";
  }
  for (const RegionCriticality& r : ser.bottlenecks) {
    os << "  bottleneck rank " << r.process << " '"
       << functionLabel(trace, r.function) << "': " << percent(r.share)
       << " of the critical path\n";
  }

  const IdleWaveReport& waves = analysis.idleWaves;
  os << "idle waves: " << waves.waves.size() << " wave(s), "
     << waves.lateArrivals << " late arrival(s), wait floor "
     << waves.effectiveMinWaitTicks << " tick(s)\n";
  for (const IdleWave& wave : waves.waves) {
    os << "  wave from rank " << wave.origin << ": " << wave.distinctRanks
       << " rank(s), " << wave.hops.size() << " hop(s), t=["
       << wave.firstTime << ".." << wave.lastTime << "], max wait "
       << wave.maxWaitTicks << " tick(s)\n";
  }
  return os.str();
}

void exportDepAnalysis(const trace::TraceView& trace,
                       const DepAnalysis& analysis, ExportFormat format,
                       std::ostream& out) {
  switch (format) {
    case ExportFormat::Text:
      out << formatDepAnalysis(trace, analysis);
      return;
    case ExportFormat::Json:
      writeDepJson(trace, analysis, out);
      return;
    case ExportFormat::Csv:
      writeDepCsv(analysis, out);
      return;
    case ExportFormat::CsvIterations:
    case ExportFormat::CsvHotspots:
      break;
  }
  throw Error(
      "dependency analysis supports the text, json and csv export formats");
}

}  // namespace perfvar::analysis
