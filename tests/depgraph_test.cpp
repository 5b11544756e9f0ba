/// Dependency-graph tests: happens-before construction and matching on
/// hand-built traces, ground-truth diagnoses of the two planted workloads
/// (the pipeline's serializing rank, the stencil's idle-wave origin), the
/// determinism guarantee (byte-identical exports at 1/2/8 threads), the
/// engine's dep stage cache (warm re-query is a hit returning the same
/// instance), the three lint rules, the never-throws robustness contract
/// on hostile inputs (cyclic timestamps, unmatched sends, invalid
/// endpoints), a differential test of the message matcher against a
/// map-per-channel FIFO oracle on seeded random hostile streams, a
/// field-by-field differential of the whole graph against a per-rank
/// reference builder at several thread counts on eager and lazy views, and
/// a guard that the derived program-order predecessor never crosses a
/// rank boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/depgraph.hpp"
#include "apps/cosmo_specs.hpp"
#include "apps/desync_stencil.hpp"
#include "apps/pipeline_chain.hpp"
#include "engine/engine.hpp"
#include "lint/lint.hpp"
#include "sim/simulator.hpp"
#include "trace/binary_io.hpp"
#include "trace/builder.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfvar::analysis {
namespace {

using trace::Event;
using trace::Trace;

/// Two ranks, one matched message: rank 0 computes then sends; rank 1
/// waits inside a sync region and receives.
Trace twoRankMessage() {
  trace::TraceBuilder b(2);
  const auto work = b.defineFunction("work", "APP");
  const auto recv =
      b.defineFunction("MPI_Recv", "MPI", trace::Paradigm::MPI);
  b.enter(0, 10, work);
  b.mpiSend(0, 100, 1, 7, 64);
  b.leave(0, 110, work);
  b.enter(1, 10, work);
  b.leave(1, 20, work);
  b.enter(1, 20, recv);
  b.mpiRecv(1, 150, 0, 7, 64);
  b.leave(1, 150, recv);
  return b.finish();
}

/// One export rendered to a string.
std::string exportString(const trace::TraceView& trace,
                         const DepAnalysis& analysis, ExportFormat format) {
  std::ostringstream out;
  exportDepAnalysis(trace, analysis, format, out);
  return out.str();
}

// ---- graph construction ----------------------------------------------------

TEST(DepGraph, MatchesSendToRecvPerChannel) {
  const Trace tr = twoRankMessage();
  const DepGraph g = buildDepGraph(tr);
  ASSERT_EQ(g.rankNodes.size(), 2u);
  EXPECT_EQ(g.stats.sendEvents, 1u);
  EXPECT_EQ(g.stats.recvEvents, 1u);
  EXPECT_EQ(g.stats.matchedPairs, 1u);
  EXPECT_EQ(g.stats.unmatchedSends, 0u);
  EXPECT_EQ(g.stats.unmatchedRecvs, 0u);

  // Locate the send and recv nodes and verify the cross edge.
  std::int64_t sendNode = -1;
  std::int64_t recvNode = -1;
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    if (g.nodes[i].kind == DepNodeKind::Send) {
      sendNode = static_cast<std::int64_t>(i);
    }
    if (g.nodes[i].kind == DepNodeKind::Recv) {
      recvNode = static_cast<std::int64_t>(i);
    }
  }
  ASSERT_GE(sendNode, 0);
  ASSERT_GE(recvNode, 0);
  EXPECT_EQ(g.nodes[sendNode].match, recvNode);
  EXPECT_EQ(g.nodes[recvNode].match, sendNode);
  // The receiver entered its sync region at t=20 and completed at t=150.
  EXPECT_EQ(g.nodes[recvNode].waitStart, 20u);
  EXPECT_EQ(g.nodes[recvNode].time, 150u);
}

TEST(DepGraph, FifoMatchingPerChannelIsOrderPreserving) {
  // Two messages on one (sender, receiver, tag) channel must match in
  // FIFO order — the MPI ordering guarantee.
  trace::TraceBuilder b(2);
  b.defineFunction("work", "APP");
  b.mpiSend(0, 10, 1, 0, 8);
  b.mpiSend(0, 20, 1, 0, 8);
  b.mpiRecv(1, 30, 0, 0, 8);
  b.mpiRecv(1, 40, 0, 0, 8);
  const Trace tr = b.finish();
  const DepGraph g = buildDepGraph(tr);
  EXPECT_EQ(g.stats.matchedPairs, 2u);
  std::vector<std::size_t> sends;
  std::vector<std::size_t> recvs;
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    if (g.nodes[i].kind == DepNodeKind::Send) sends.push_back(i);
    if (g.nodes[i].kind == DepNodeKind::Recv) recvs.push_back(i);
  }
  ASSERT_EQ(sends.size(), 2u);
  ASSERT_EQ(recvs.size(), 2u);
  EXPECT_EQ(g.nodes[sends[0]].match, static_cast<std::int64_t>(recvs[0]));
  EXPECT_EQ(g.nodes[sends[1]].match, static_cast<std::int64_t>(recvs[1]));
}

TEST(DepGraph, CountsUnmatchedAndInvalidEndpoints) {
  trace::TraceBuilder b(2);
  b.defineFunction("work", "APP");
  b.mpiSend(0, 10, 1, 0, 8);    // never received
  b.mpiRecv(1, 20, 0, 9, 8);    // never sent (wrong tag)
  const Trace tr1 = b.finish();
  const DepGraph g1 = buildDepGraph(tr1);
  EXPECT_EQ(g1.stats.matchedPairs, 0u);
  EXPECT_EQ(g1.stats.unmatchedSends, 1u);
  EXPECT_EQ(g1.stats.unmatchedRecvs, 1u);

  // Self-send and out-of-range peers are screened, not matched. The
  // builder refuses these, so assemble the trace by hand.
  Trace tr2;
  tr2.functions.intern("f", "APP");
  trace::ProcessTrace proc;
  proc.name = "p0";
  proc.events.push_back(Event::mpiSend(10, 0, 0, 8));    // self
  proc.events.push_back(Event::mpiSend(20, 1000, 0, 8)); // out of range
  tr2.processes.push_back(std::move(proc));
  const DepGraph g2 = buildDepGraph(tr2);
  EXPECT_EQ(g2.stats.invalidEndpoints, 2u);
  EXPECT_EQ(g2.stats.matchedPairs, 0u);
}

// ---- critical path ---------------------------------------------------------

TEST(DepGraph, CriticalPathCrossesTheLateMessage) {
  const Trace tr = twoRankMessage();
  const DepGraph g = buildDepGraph(tr);
  const CriticalPathResult path = extractCriticalPath(g);
  EXPECT_FALSE(path.truncated);
  EXPECT_EQ(path.endProcess, 1u);
  EXPECT_EQ(path.pathEnd, 150u);
  // The receive completed at 150 but the rank began waiting at 20: the
  // send at t=100 departed late, so the path must hop to rank 0.
  bool sawRemote = false;
  for (const CriticalPathStep& s : path.steps) {
    sawRemote |= s.remote;
  }
  EXPECT_TRUE(sawRemote);
  EXPECT_GT(path.remoteTicks, 0u);
  EXPECT_EQ(path.accountedTicks, path.pathEnd - path.pathStart);
}

// ---- pipeline ground truth -------------------------------------------------

TEST(DepGraphPipeline, DiagnosesThePlantedSerializingRank) {
  const apps::PipelineConfig cfg;
  const Trace tr = apps::buildPipelineTrace(cfg);
  const std::size_t slow = apps::pipelineSlowRank(cfg);
  const DepAnalysis a = analyzeDependencies(tr);

  EXPECT_EQ(a.processCount, cfg.ranks);
  EXPECT_EQ(a.graphStats.matchedPairs,
            (cfg.ranks - 1) * cfg.items);
  EXPECT_EQ(a.graphStats.unmatchedSends, 0u);
  EXPECT_EQ(a.graphStats.unmatchedRecvs, 0u);

  // The slow stage dominates the critical path...
  ASSERT_EQ(a.serialization.dominatedRanks.size(), 1u);
  EXPECT_EQ(a.serialization.dominatedRanks[0].process, slow);
  EXPECT_GT(a.serialization.dominatedRanks[0].share, 0.9);

  // ...and the bottleneck region is its compute function.
  ASSERT_FALSE(a.serialization.bottlenecks.empty());
  const RegionCriticality& top = a.serialization.bottlenecks[0];
  EXPECT_EQ(top.process, slow);
  EXPECT_EQ(tr.functions.name(top.function), "stage_compute");
  EXPECT_GT(top.share, 0.9);
}

TEST(DepGraphPipeline, JitterDoesNotChangeTheDiagnosis) {
  apps::PipelineConfig cfg;
  cfg.jitterTicks = 20'000;  // well below slowExtraTicks
  const Trace tr = apps::buildPipelineTrace(cfg);
  const DepAnalysis a = analyzeDependencies(tr);
  ASSERT_EQ(a.serialization.dominatedRanks.size(), 1u);
  EXPECT_EQ(a.serialization.dominatedRanks[0].process,
            apps::pipelineSlowRank(cfg));
}

// ---- stencil ground truth --------------------------------------------------

TEST(DepGraphStencil, DiagnosesTheIdleWaveOrigin) {
  const apps::StencilConfig cfg;
  const Trace tr = apps::buildStencilTrace(cfg);
  const std::size_t delayed = apps::stencilDelayRank(cfg);
  const DepAnalysis a = analyzeDependencies(tr);

  EXPECT_EQ(a.processCount, cfg.ranks);
  EXPECT_EQ(a.graphStats.unmatchedSends, 0u);
  EXPECT_EQ(a.graphStats.unmatchedRecvs, 0u);

  // One wave, seeded by the delayed rank, washing over every rank (the
  // left- and right-moving fronts merge by origin).
  ASSERT_EQ(a.idleWaves.waves.size(), 1u);
  const IdleWave& wave = a.idleWaves.waves[0];
  EXPECT_EQ(wave.origin, delayed);
  EXPECT_EQ(wave.distinctRanks, cfg.ranks);
  EXPECT_GE(wave.maxWaitTicks, cfg.delayExtraTicks);
  // One late arrival per rank other than the origin (the origin itself
  // was computing, not waiting).
  EXPECT_EQ(wave.hops.size(), cfg.ranks - 1);
  for (const IdleWaveHop& hop : wave.hops) {
    EXPECT_NE(hop.process, delayed);
  }
}

// ---- determinism -----------------------------------------------------------

TEST(DepGraphDeterminism, ExportsAreByteIdenticalAcrossThreadCounts) {
  const Trace pipeline = apps::buildPipelineTrace({});
  const Trace stencil = apps::buildStencilTrace({});
  for (const Trace* tr : {&pipeline, &stencil}) {
    DepAnalysisOptions serial;
    const DepAnalysis reference = analyzeDependencies(*tr, serial);
    for (const std::size_t threads : {2ul, 8ul}) {
      DepAnalysisOptions opts;
      opts.threads = threads;
      const DepAnalysis a = analyzeDependencies(*tr, opts);
      for (const auto format :
           {ExportFormat::Text, ExportFormat::Json, ExportFormat::Csv}) {
        EXPECT_EQ(exportString(*tr, a, format),
                  exportString(*tr, reference, format))
            << "threads=" << threads;
      }
    }
  }
}

// ---- export formats --------------------------------------------------------

TEST(DepGraphExport, AnalysisSpecificCsvVariantsThrow) {
  const Trace tr = twoRankMessage();
  const DepAnalysis a = analyzeDependencies(tr);
  EXPECT_THROW(exportString(tr, a, ExportFormat::CsvIterations),
               Error);
  EXPECT_THROW(exportString(tr, a, ExportFormat::CsvHotspots),
               Error);
}

TEST(DepGraphExport, CsvHasOneRowPerStep) {
  const Trace tr = apps::buildPipelineTrace({});
  const DepAnalysis a = analyzeDependencies(tr);
  const std::string csv = exportString(tr, a, ExportFormat::Csv);
  std::size_t lines = 0;
  for (const char c : csv) {
    lines += c == '\n';
  }
  EXPECT_EQ(lines, a.criticalPath.steps.size() + 1);  // + header
}

// ---- engine caching --------------------------------------------------------

TEST(DepGraphEngine, WarmReQueryHitsTheDepStageCache) {
  engine::EngineOptions opts;
  opts.threads = 2;
  engine::AnalysisEngine eng(apps::buildPipelineTrace({}), opts);
  const auto cold = eng.depAnalysis();
  const engine::CacheStats afterCold = eng.cacheStats();
  const auto warm = eng.depAnalysis();
  const engine::CacheStats afterWarm = eng.cacheStats();
  // Same instance, one more hit, no more misses.
  EXPECT_EQ(cold.get(), warm.get());
  EXPECT_EQ(afterWarm.hits, afterCold.hits + 1);
  EXPECT_EQ(afterWarm.misses, afterCold.misses);
}

TEST(DepGraphEngine, ThresholdChangesMissAndExecOptionsDoNot) {
  engine::AnalysisEngine eng(apps::buildPipelineTrace({}));
  const auto base = eng.depAnalysis();
  // Execution fields are not part of the fingerprint.
  DepAnalysisOptions execOnly;
  execOnly.threads = 8;
  EXPECT_EQ(eng.depAnalysis(execOnly).get(), base.get());
  // A threshold change is a different stage key.
  DepAnalysisOptions tightened;
  tightened.serialization.rankShareThreshold = 0.9;
  EXPECT_NE(eng.depAnalysis(tightened).get(), base.get());
}

TEST(DepGraphEngine, ReportMatchesTheLibraryFormatter) {
  const Trace tr = apps::buildStencilTrace({});
  engine::AnalysisEngine eng(apps::buildStencilTrace({}));
  EXPECT_EQ(eng.formatDepReport(),
            formatDepAnalysis(tr, analyzeDependencies(tr)));
}

// ---- lint rules ------------------------------------------------------------

bool hasFinding(const lint::LintReport& report, const std::string& rule,
                trace::ProcessId process) {
  for (const lint::Finding& f : report.findings) {
    if (f.rule == rule && f.process == process) {
      return true;
    }
  }
  return false;
}

TEST(DepGraphLint, PipelineFiresTheSerializationRules) {
  const apps::PipelineConfig cfg;
  const Trace tr = apps::buildPipelineTrace(cfg);
  const auto slow = static_cast<trace::ProcessId>(apps::pipelineSlowRank(cfg));
  const lint::LintReport report = lint::lintTrace(tr);
  EXPECT_TRUE(hasFinding(report, "critical-path-dominated-rank", slow))
      << formatLintReport(report);
  EXPECT_TRUE(hasFinding(report, "serialization-bottleneck", slow))
      << formatLintReport(report);
}

TEST(DepGraphLint, StencilFiresTheIdleWaveRule) {
  const apps::StencilConfig cfg;
  const Trace tr = apps::buildStencilTrace(cfg);
  const auto delayed =
      static_cast<trace::ProcessId>(apps::stencilDelayRank(cfg));
  const lint::LintReport report = lint::lintTrace(tr);
  EXPECT_TRUE(hasFinding(report, "idle-wave-propagation", delayed))
      << formatLintReport(report);
}

TEST(DepGraphLint, RulesRespectTheConfiguredThresholds) {
  // With an unreachable rank-share threshold the dominated-rank rule goes
  // quiet; the bottleneck rule follows its own threshold.
  const Trace tr = apps::buildPipelineTrace({});
  lint::LintOptions options;
  options.serialization.rankShareThreshold = 1.1;
  options.serialization.functionShareThreshold = 1.1;
  options.idleWave.minRanks = 1000;
  const lint::LintReport report = lint::lintTrace(tr, options);
  for (const lint::Finding& f : report.findings) {
    EXPECT_NE(f.rule, "critical-path-dominated-rank");
    EXPECT_NE(f.rule, "serialization-bottleneck");
    EXPECT_NE(f.rule, "idle-wave-propagation");
  }
}

// ---- robustness ------------------------------------------------------------

TEST(DepGraphRobustness, CyclicTimestampsTerminateViaTheVisitedGuard) {
  // Hand-built garbage: timestamps run backward across a matched pair in
  // both directions, which would cycle a naive backward walk.
  Trace tr;
  tr.functions.intern("f", "APP");
  for (int p = 0; p < 2; ++p) {
    trace::ProcessTrace proc;
    proc.name = "p" + std::to_string(p);
    const auto peer = static_cast<trace::ProcessId>(1 - p);
    proc.events.push_back(Event::mpiRecv(5, peer, 0, 8));
    proc.events.push_back(Event::mpiSend(100, peer, 0, 8));
    proc.events.push_back(Event::mpiRecv(3, peer, 1, 8));
    proc.events.push_back(Event::mpiSend(90, peer, 1, 8));
    tr.processes.push_back(std::move(proc));
  }
  DepAnalysis a;
  ASSERT_NO_THROW(a = analyzeDependencies(tr));
  EXPECT_NO_THROW(exportString(tr, a, ExportFormat::Text));
  EXPECT_NO_THROW(exportString(tr, a, ExportFormat::Json));
  EXPECT_NO_THROW(exportString(tr, a, ExportFormat::Csv));
}

TEST(DepGraphRobustness, HostileShapesNeverThrow) {
  // Empty trace.
  const Trace empty;
  EXPECT_NO_THROW(analyzeDependencies(empty));

  // Events referencing undefined functions, non-monotone clocks,
  // unmatched traffic in both directions.
  Trace tr;
  trace::ProcessTrace proc;
  proc.name = "p0";
  proc.events.push_back(Event::enter(50, 99));
  proc.events.push_back(Event::mpiSend(10, 1, 0, 8));
  proc.events.push_back(Event::leave(5, 99));
  proc.events.push_back(Event::mpiRecv(2, 7, 3, 8));
  tr.processes.push_back(std::move(proc));
  DepAnalysis a;
  ASSERT_NO_THROW(a = analyzeDependencies(tr));
  EXPECT_EQ(a.graphStats.unmatchedRecvs + a.graphStats.invalidEndpoints +
                a.graphStats.unmatchedSends,
            2u);
  EXPECT_NO_THROW(formatDepAnalysis(tr, a));
}

// ---- matching differential -------------------------------------------------

/// The matching of a graph: the counterpart of every node and the
/// counters of the matching phase.
struct Matching {
  std::vector<std::int64_t> match;
  DepGraphStats stats;
};

Matching matchingOf(const DepGraph& g) {
  Matching m;
  m.stats = g.stats;
  for (const DepNode& node : g.nodes) {
    m.match.push_back(node.match);
  }
  return m;
}

/// Reference matcher: one std::map entry per directed (sender, receiver,
/// tag) channel holding the channel's sends and receives in node order;
/// the k-th send pairs with the k-th receive (MPI non-overtaking). Reads
/// only the node kinds, endpoints and tags of `g`.
Matching oracleMatching(const DepGraph& g) {
  Matching m;
  m.match.assign(g.nodes.size(), -1);
  struct Channel {
    std::vector<std::size_t> sends;
    std::vector<std::size_t> recvs;
  };
  std::map<std::array<std::uint64_t, 3>, Channel> channels;
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    const DepNode& node = g.nodes[i];
    if (node.kind != DepNodeKind::Send && node.kind != DepNodeKind::Recv) {
      continue;
    }
    const bool isSend = node.kind == DepNodeKind::Send;
    (isSend ? m.stats.sendEvents : m.stats.recvEvents) += 1;
    if (node.peer >= g.processCount || node.peer == node.process) {
      m.stats.invalidEndpoints += 1;
      continue;
    }
    const std::uint64_t sender = isSend ? node.process : node.peer;
    const std::uint64_t receiver = isSend ? node.peer : node.process;
    Channel& channel = channels[{sender, receiver, node.tag}];
    (isSend ? channel.sends : channel.recvs).push_back(i);
  }
  for (const auto& [key, channel] : channels) {
    const std::size_t paired =
        std::min(channel.sends.size(), channel.recvs.size());
    for (std::size_t k = 0; k < paired; ++k) {
      m.match[channel.sends[k]] = static_cast<std::int64_t>(channel.recvs[k]);
      m.match[channel.recvs[k]] = static_cast<std::int64_t>(channel.sends[k]);
    }
    m.stats.matchedPairs += paired;
    m.stats.unmatchedSends += channel.sends.size() - paired;
    m.stats.unmatchedRecvs += channel.recvs.size() - paired;
  }
  return m;
}

/// A random hostile trace for the matcher: few peers and tags so channels
/// repeat and senders collide on (receiver, tag); self-sends, out-of-range
/// peers (up to UINT32_MAX), tags 0 and UINT32_MAX, ranks with no events
/// or no messages, stray enter/leave events and backward timestamps.
Trace randomMessageTrace(Rng& rng) {
  constexpr std::uint32_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
  const auto processes = static_cast<std::uint32_t>(rng.uniformInt(1, 9));
  Trace tr;
  tr.functions.intern("f", "APP");
  for (std::uint32_t p = 0; p < processes; ++p) {
    trace::ProcessTrace proc;
    proc.name = "p";
    proc.name += std::to_string(p);
    const std::int64_t shape = rng.uniformInt(0, 5);
    const std::int64_t events = shape == 0 ? 0 : rng.uniformInt(1, 60);
    trace::Timestamp t = 0;
    for (std::int64_t e = 0; e < events; ++e) {
      t += static_cast<trace::Timestamp>(rng.uniformInt(0, 4));
      const std::int64_t kind = rng.uniformInt(0, 9);
      if (shape == 1 || kind < 2) {  // a rank with no messages, or noise
        proc.events.push_back(kind % 2 == 0 ? Event::enter(t, 0)
                                            : Event::leave(t, 0));
        continue;
      }
      std::uint32_t peer = 0;
      const std::int64_t pick = rng.uniformInt(0, 19);
      if (pick == 0) {
        peer = p;  // self
      } else if (pick == 1) {
        peer = processes + static_cast<std::uint32_t>(rng.uniformInt(0, 3));
      } else if (pick == 2) {
        peer = kMaxU32;
      } else {
        peer = static_cast<std::uint32_t>(rng.uniformInt(0, processes - 1));
      }
      const std::int64_t tagPick = rng.uniformInt(0, 3);
      const std::uint32_t tag =
          tagPick == 3 ? kMaxU32 : static_cast<std::uint32_t>(tagPick);
      if (rng.uniformInt(0, 19) == 0) {
        t -= std::min<trace::Timestamp>(t, 3);  // backward clock
      }
      proc.events.push_back(kind < 6 ? Event::mpiSend(t, peer, tag, 8)
                                     : Event::mpiRecv(t, peer, tag, 8));
    }
    tr.processes.push_back(std::move(proc));
  }
  return tr;
}

TEST(DepGraphMatching, AgreesWithTheChannelMapOracleOnRandomHostileStreams) {
  Rng rng(20160816);
  DepGraphStats total;
  std::size_t sharedReceiverTag = 0;
  std::size_t repeatedChannels = 0;
  std::size_t selfSends = 0;
  std::set<std::uint32_t> matchedTags;
  for (int trial = 0; trial < 400; ++trial) {
    const Trace tr = randomMessageTrace(rng);
    const DepGraph serial = buildDepGraph(tr);
    const Matching expected = oracleMatching(serial);
    const Matching actual = matchingOf(serial);
    ASSERT_EQ(actual.stats, expected.stats) << "trial " << trial;
    ASSERT_EQ(actual.match, expected.match) << "trial " << trial;

    DepGraphOptions parallel;
    parallel.threads = 4;
    const Matching threaded = matchingOf(buildDepGraph(tr, parallel));
    ASSERT_EQ(threaded.stats, expected.stats) << "trial " << trial;
    ASSERT_EQ(threaded.match, expected.match) << "trial " << trial;

    total.sendEvents += expected.stats.sendEvents;
    total.recvEvents += expected.stats.recvEvents;
    total.matchedPairs += expected.stats.matchedPairs;
    total.unmatchedSends += expected.stats.unmatchedSends;
    total.unmatchedRecvs += expected.stats.unmatchedRecvs;
    total.invalidEndpoints += expected.stats.invalidEndpoints;

    // Coverage of the shapes the flat matcher must keep apart.
    std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
             std::size_t>
        channelPairs;
    for (std::size_t i = 0; i < serial.nodes.size(); ++i) {
      const DepNode& node = serial.nodes[i];
      if (node.kind == DepNodeKind::Send && node.peer == node.process) {
        selfSends += 1;
      }
      if (node.kind == DepNodeKind::Send && node.match >= 0) {
        channelPairs[{node.process, node.peer, node.tag}] += 1;
        matchedTags.insert(node.tag);
      }
    }
    std::map<std::pair<std::uint32_t, std::uint32_t>,
             std::set<std::uint32_t>>
        sendersPerReceiverTag;
    for (const auto& [channel, pairs] : channelPairs) {
      const auto [sender, receiver, tag] = channel;
      repeatedChannels += pairs > 1 ? 1 : 0;
      sendersPerReceiverTag[{receiver, tag}].insert(sender);
    }
    for (const auto& [receiverTag, senders] : sendersPerReceiverTag) {
      sharedReceiverTag += senders.size() > 1 ? 1 : 0;
    }
  }
  EXPECT_GT(total.matchedPairs, 0u);
  EXPECT_GT(total.unmatchedSends, 0u);
  EXPECT_GT(total.unmatchedRecvs, 0u);
  EXPECT_GT(total.invalidEndpoints, 0u);
  EXPECT_GT(repeatedChannels, 0u);
  EXPECT_GT(sharedReceiverTag, 0u);
  EXPECT_GT(selfSends, 0u);
  EXPECT_TRUE(matchedTags.count(0) == 1);
  EXPECT_TRUE(matchedTags.count(std::numeric_limits<std::uint32_t>::max()) ==
              1);
}

// ---- construction differential ---------------------------------------------

/// Reference builder: one shard of nodes and attribution per rank, a
/// serial merge into the global arrays in rank order, and a matcher that
/// std::sorts each sender bucket by (channel, isRecv, node). Serial; it
/// pins each rank once, as the production builder does.
namespace reference {

struct Frame {
  trace::FunctionId function = trace::kInvalidFunction;
  trace::Timestamp enter = 0;
  bool sync = false;
};

struct RankShard {
  std::vector<DepNode> nodes;
  std::vector<FunctionTicks> attribution;
};

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

RankShard extractRank(const trace::TraceView& view, trace::ProcessId rank,
                      std::size_t functionCount,
                      const std::vector<bool>& syncMask) {
  RankShard shard;
  const trace::RankPin pin = view.rank(rank);
  const trace::EventSpan events = pin.events();
  std::vector<Frame> stack;
  std::vector<FunctionTicks> pending;
  const trace::Timestamp first = events.size() > 0 ? events[0].time : 0;

  const auto flushNode = [&](DepNode node) {
    node.process = rank;
    node.attrBegin = static_cast<std::uint32_t>(shard.attribution.size());
    node.attrCount = static_cast<std::uint32_t>(pending.size());
    shard.attribution.insert(shard.attribution.end(), pending.begin(),
                             pending.end());
    pending.clear();
    shard.nodes.push_back(node);
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
      addAttribution(pending,
                     stack.empty() ? trace::kInvalidFunction
                                   : stack.back().function,
                     t - cursor);
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
  return shard;
}

struct MessageRecord {
  std::uint64_t channel;
  std::uint64_t node;

  auto operator<=>(const MessageRecord&) const = default;
};

constexpr std::uint64_t kRecvBit = std::uint64_t{1} << 63;

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

  std::vector<std::size_t> bucketBegin(ranks + 1, 0);
  for (const DepNode& node : graph.nodes) {
    if (node.kind != DepNodeKind::Send && node.kind != DepNodeKind::Recv) {
      continue;
    }
    (node.kind == DepNodeKind::Send ? graph.stats.sendEvents
                                    : graph.stats.recvEvents) += 1;
    const std::size_t sender = senderOf(node);
    if (sender == ranks) {
      graph.stats.invalidEndpoints += 1;
    } else {
      bucketBegin[sender + 1] += 1;
    }
  }
  for (std::size_t s = 0; s < ranks; ++s) {
    bucketBegin[s + 1] += bucketBegin[s];
  }

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

  for (std::size_t s = 0; s < ranks; ++s) {
    const auto first = records.begin() + bucketBegin[s];
    const auto last = records.begin() + bucketBegin[s + 1];
    std::sort(first, last);
    for (auto run = first; run != last;) {
      const std::uint64_t channel = run->channel;
      const auto runEnd = std::find_if(run, last, [&](const MessageRecord& r) {
        return r.channel != channel;
      });
      const auto recvBegin =
          std::partition_point(run, runEnd, [](const MessageRecord& r) {
            return (r.node & kRecvBit) == 0;
          });
      const auto sends = static_cast<std::size_t>(recvBegin - run);
      const auto recvs = static_cast<std::size_t>(runEnd - recvBegin);
      const std::size_t paired = std::min(sends, recvs);
      for (std::size_t k = 0; k < paired; ++k) {
        const std::uint64_t send = run[k].node;
        const std::uint64_t recv = recvBegin[k].node & ~kRecvBit;
        graph.nodes[send].match = static_cast<std::int64_t>(recv);
        graph.nodes[recv].match = static_cast<std::int64_t>(send);
      }
      graph.stats.matchedPairs += paired;
      graph.stats.unmatchedSends += sends - paired;
      graph.stats.unmatchedRecvs += recvs - paired;
      run = runEnd;
    }
  }
}

DepGraph buildDepGraph(const trace::TraceView& trace) {
  DepGraph graph;
  graph.processCount = trace.processCount();
  graph.functionCount = trace.functions().size();
  const std::vector<bool> syncMask = SyncClassifier{}.mask(trace);

  for (std::size_t p = 0; p < graph.processCount; ++p) {
    const RankShard shard =
        extractRank(trace, static_cast<trace::ProcessId>(p),
                    graph.functionCount, syncMask);
    const std::size_t base = graph.nodes.size();
    const std::size_t attrBase = graph.attribution.size();
    graph.rankNodes.emplace_back(base, base + shard.nodes.size());
    for (DepNode node : shard.nodes) {
      const std::size_t attrBegin = attrBase + node.attrBegin;
      if (attrBegin + node.attrCount <=
          std::numeric_limits<std::uint32_t>::max()) {
        node.attrBegin = static_cast<std::uint32_t>(attrBegin);
      } else {
        node.attrBegin = 0;
        node.attrCount = 0;
      }
      graph.nodes.push_back(node);
    }
    graph.attribution.insert(graph.attribution.end(),
                             shard.attribution.begin(),
                             shard.attribution.end());
  }

  bool haveExtent = false;
  for (std::size_t p = 0; p < graph.processCount; ++p) {
    const auto [begin, end] = graph.rankNodes[p];
    if (end - begin <= 2 &&
        graph.nodes[begin].time == graph.nodes[end - 1].time &&
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

}  // namespace reference

/// Every field of one node, for a field-by-field comparison.
auto nodeFields(const DepNode& n) {
  return std::make_tuple(n.time, n.waitStart, n.match, n.eventIndex,
                         n.attrBegin, n.attrCount, n.process, n.peer, n.tag,
                         static_cast<int>(n.kind), n.function);
}

void expectSameGraph(const DepGraph& actual, const DepGraph& expected,
                     const std::string& what) {
  ASSERT_EQ(actual.nodes.size(), expected.nodes.size()) << what;
  for (std::size_t i = 0; i < actual.nodes.size(); ++i) {
    ASSERT_EQ(nodeFields(actual.nodes[i]), nodeFields(expected.nodes[i]))
        << what << ", node " << i;
  }
  ASSERT_EQ(actual.attribution.size(), expected.attribution.size()) << what;
  for (std::size_t i = 0; i < actual.attribution.size(); ++i) {
    ASSERT_EQ(actual.attribution[i].function,
              expected.attribution[i].function)
        << what << ", attribution " << i;
    ASSERT_EQ(actual.attribution[i].ticks, expected.attribution[i].ticks)
        << what << ", attribution " << i;
  }
  EXPECT_EQ(actual.rankNodes, expected.rankNodes) << what;
  EXPECT_EQ(actual.stats, expected.stats) << what;
  EXPECT_EQ(actual.processCount, expected.processCount) << what;
  EXPECT_EQ(actual.functionCount, expected.functionCount) << what;
  EXPECT_EQ(actual.startTime, expected.startTime) << what;
  EXPECT_EQ(actual.endTime, expected.endTime) << what;
}

/// Random nesting over sync-classified (MPI) and compute functions, with
/// messages inside and outside sync regions, enters naming undefined
/// functions, leaves on an empty stack, metric events and ranks without
/// events. Clocks are monotone, so the trace also round-trips through a
/// v2 file.
Trace randomNestingTrace(Rng& rng) {
  Trace tr;
  tr.functions.intern("work", "APP");
  tr.functions.intern("MPI_Recv", "MPI", trace::Paradigm::MPI);
  tr.functions.intern("inner", "APP");
  tr.functions.intern("MPI_Wait", "MPI", trace::Paradigm::MPI);
  tr.metrics.intern("cycles");
  const auto processes = static_cast<std::uint32_t>(rng.uniformInt(2, 12));
  for (std::uint32_t p = 0; p < processes; ++p) {
    trace::ProcessTrace proc;
    proc.name = "p" + std::to_string(p);
    const std::int64_t events =
        rng.uniformInt(0, 4) == 0 ? 0 : rng.uniformInt(1, 80);
    trace::Timestamp t = 0;
    std::vector<trace::FunctionId> stack;
    for (std::int64_t e = 0; e < events; ++e) {
      t += static_cast<trace::Timestamp>(rng.uniformInt(0, 5));
      const std::int64_t kind = rng.uniformInt(0, 9);
      if (kind < 3) {
        // Function 5 is undefined: a dangling ref.
        const auto fn = static_cast<trace::FunctionId>(rng.uniformInt(0, 5));
        proc.events.push_back(Event::enter(t, fn));
        stack.push_back(fn);
      } else if (kind < 5) {
        const trace::FunctionId fn = stack.empty() ? 0 : stack.back();
        if (!stack.empty()) {
          stack.pop_back();
        }
        proc.events.push_back(Event::leave(t, fn));
      } else if (kind == 5) {
        proc.events.push_back(Event::metric(t, 0, 7));
      } else {
        const auto peer = static_cast<trace::ProcessId>(
            rng.uniformInt(0, processes - 1));
        const auto tag = static_cast<std::uint32_t>(rng.uniformInt(0, 2));
        proc.events.push_back(kind < 8 ? Event::mpiSend(t, peer, tag, 8)
                                       : Event::mpiRecv(t, peer, tag, 8));
      }
    }
    tr.processes.push_back(std::move(proc));
  }
  return tr;
}

/// Hostile streams for the run-length replay, eager only: the clocks step
/// backwards mid-frame, so the trace does not round-trip through a v2
/// file. Runs of zero-length intervals, receives under two sync regions
/// with a compute frame between them (and under one sync region below a
/// compute frame), undefined functions entered inside a sync region, and
/// leaves on an empty stack between messages.
Trace randomHostileReplayTrace(Rng& rng) {
  Trace tr;
  const trace::FunctionId work = tr.functions.intern("work", "APP");
  const trace::FunctionId recvFn =
      tr.functions.intern("MPI_Recv", "MPI", trace::Paradigm::MPI);
  const trace::FunctionId inner = tr.functions.intern("inner", "APP");
  const trace::FunctionId wait =
      tr.functions.intern("MPI_Wait", "MPI", trace::Paradigm::MPI);
  const auto processes = static_cast<std::uint32_t>(rng.uniformInt(2, 8));
  for (std::uint32_t p = 0; p < processes; ++p) {
    trace::ProcessTrace proc;
    proc.name = "p" + std::to_string(p);
    auto t = static_cast<trace::Timestamp>(rng.uniformInt(0, 40));
    std::size_t depth = 0;
    // Three in ten steps keep the clock (zero-length intervals), one in
    // ten steps it backwards, the rest advance it.
    const auto tick = [&] {
      const std::int64_t r = rng.uniformInt(0, 9);
      if (r == 9) {
        t -= std::min<trace::Timestamp>(
            t, static_cast<trace::Timestamp>(rng.uniformInt(1, 20)));
      } else if (r >= 3) {
        t += static_cast<trace::Timestamp>(rng.uniformInt(1, 6));
      }
      return t;
    };
    const auto enter = [&](trace::FunctionId fn) {
      proc.events.push_back(Event::enter(tick(), fn));
      ++depth;
    };
    const auto leave = [&] {
      proc.events.push_back(Event::leave(tick(), work));
      depth -= depth > 0 ? 1 : 0;
    };
    const auto message = [&](bool recv) {
      const auto peer =
          static_cast<trace::ProcessId>(rng.uniformInt(0, processes - 1));
      const auto tag = static_cast<std::uint32_t>(rng.uniformInt(0, 1));
      proc.events.push_back(recv ? Event::mpiRecv(tick(), peer, tag, 8)
                                 : Event::mpiSend(tick(), peer, tag, 8));
    };
    const auto leaveSome = [&] {
      for (std::int64_t n = rng.uniformInt(0, 3); n > 0; --n) {
        leave();
      }
    };
    const std::int64_t steps = rng.uniformInt(0, 30);
    for (std::int64_t step = 0; step < steps; ++step) {
      switch (rng.uniformInt(0, 6)) {
        case 0:  // sync, compute, sync, then the receive
          enter(wait);
          enter(inner);
          enter(recvFn);
          message(true);
          leaveSome();
          break;
        case 1:  // a receive under one sync region below a compute frame
          enter(recvFn);
          enter(work);
          message(true);
          leaveSome();
          break;
        case 2:  // an undefined function entered inside a sync region
          enter(wait);
          enter(static_cast<trace::FunctionId>(rng.uniformInt(4, 90)));
          message(rng.uniformInt(0, 1) == 0);
          leaveSome();
          break;
        case 3:  // leaves on an empty stack between messages
          while (depth > 0) {
            leave();
          }
          leave();
          message(false);
          leave();
          message(true);
          break;
        case 4:
          enter(static_cast<trace::FunctionId>(rng.uniformInt(0, 5)));
          break;
        case 5:
          leave();
          break;
        default:
          message(rng.uniformInt(0, 1) == 0);
          break;
      }
    }
    tr.processes.push_back(std::move(proc));
  }
  return tr;
}

/// A lazy v2 view of `tr` whose shard budget holds about a quarter of the
/// decoded trace, so a sweep over the ranks evicts.
trace::TraceView lazyView(const Trace& tr, const std::string& tag) {
  const std::string path = "depgraph_oracle_" + tag + ".pvt";
  trace::saveBinaryFile(tr, path);
  trace::TraceViewOptions options;
  options.shardBudgetBytes = tr.eventCount() * sizeof(Event) / 4;
  trace::TraceView view = trace::TraceView::openFile(path, options);
  std::remove(path.c_str());  // the view keeps its mapping
  return view;
}

/// The production graph of `view` at 1, 2, 3 and 8 threads against the
/// reference builder.
void expectMatchesReference(const trace::TraceView& view,
                            const std::string& what) {
  const DepGraph expected = reference::buildDepGraph(view);
  for (const std::size_t threads : {1ul, 2ul, 3ul, 8ul}) {
    DepGraphOptions options;
    options.threads = threads;
    expectSameGraph(buildDepGraph(view, options), expected,
                    what + ", " + std::to_string(threads) + " thread(s)");
  }
}

Trace smallCosmo() {
  apps::CosmoSpecsConfig cfg;
  cfg.gridX = 4;
  cfg.gridY = 4;
  cfg.timesteps = 12;
  const auto scenario = apps::buildCosmoSpecs(cfg);
  return sim::simulate(scenario.program, scenario.simOptions);
}

TEST(DepGraphBuild, EqualsThePerRankOracle) {
  Rng rng(20161018);
  for (int trial = 0; trial < 40; ++trial) {
    const std::string what = "trial " + std::to_string(trial);
    const Trace messages = randomMessageTrace(rng);
    expectMatchesReference(messages, what + " (messages)");
    const Trace nested = randomNestingTrace(rng);
    expectMatchesReference(nested, what + " (nesting, eager)");
    expectMatchesReference(lazyView(nested, "nesting"),
                           what + " (nesting, lazy)");
  }
  // Its own seed, so the traces above stay what they were.
  Rng hostileRng(20161019);
  for (int trial = 0; trial < 200; ++trial) {
    const Trace hostile = randomHostileReplayTrace(hostileRng);
    expectMatchesReference(hostile,
                           "hostile replay trial " + std::to_string(trial));
  }

  // Dangling function refs: every enter names an undefined function.
  Trace dangling;
  dangling.functions.intern("f", "APP");
  for (trace::ProcessId p = 0; p < 3; ++p) {
    trace::ProcessTrace proc;
    proc.name = "p" + std::to_string(p);
    proc.events.push_back(Event::enter(1, 40 + p));
    proc.events.push_back(Event::mpiSend(4, (p + 1) % 3, 0, 8));
    proc.events.push_back(Event::mpiRecv(9, (p + 2) % 3, 0, 8));
    proc.events.push_back(Event::leave(12, 40 + p));
    dangling.processes.push_back(std::move(proc));
  }
  expectMatchesReference(dangling, "dangling refs");

  const Trace pipeline = apps::buildPipelineTrace({});
  const Trace stencil = apps::buildStencilTrace({});
  const Trace cosmo = smallCosmo();
  for (const auto& [name, tr] :
       {std::pair<std::string, const Trace*>{"pipeline", &pipeline},
        {"stencil", &stencil},
        {"cosmo", &cosmo}}) {
    expectMatchesReference(*tr, name + " (eager)");
    const trace::TraceView lazy = lazyView(*tr, name);
    expectMatchesReference(lazy, name + " (lazy)");
    EXPECT_GT(lazy.stats().shardEvictions, 0u) << name;
  }
}

// ---- derived predecessor ---------------------------------------------------

TEST(DepGraphRobustness, PathNeverStepsAcrossARankBoundary) {
  std::vector<Trace> traces;
  traces.emplace_back();  // empty

  // The shape of HostileShapesNeverThrow: undefined functions,
  // non-monotone clocks, unmatched traffic in both directions.
  {
    Trace tr;
    trace::ProcessTrace proc;
    proc.name = "p0";
    proc.events.push_back(Event::enter(50, 99));
    proc.events.push_back(Event::mpiSend(10, 1, 0, 8));
    proc.events.push_back(Event::leave(5, 99));
    proc.events.push_back(Event::mpiRecv(2, 7, 3, 8));
    tr.processes.push_back(std::move(proc));
    traces.push_back(std::move(tr));
  }

  // Zero-event ranks around ranks whose first event is a receive, with the
  // latest rank end on each rank in turn, so the backward walk reaches the
  // RankStart of a rank that follows another rank's nodes.
  for (trace::ProcessId latest = 0; latest < 5; ++latest) {
    Trace tr;
    tr.functions.intern("work", "APP");
    tr.functions.intern("MPI_Recv", "MPI", trace::Paradigm::MPI);
    for (trace::ProcessId p = 0; p < 5; ++p) {
      trace::ProcessTrace proc;
      proc.name = "p" + std::to_string(p);
      if (p % 2 == 1) {
        // First event a receive (matched from the even rank before it),
        // then local work.
        proc.events.push_back(Event::mpiRecv(30, p - 1, 0, 8));
        proc.events.push_back(Event::enter(30, 0));
        proc.events.push_back(Event::leave(p == latest ? 500 : 60, 0));
      } else if (p != 4) {
        proc.events.push_back(Event::enter(5, 0));
        proc.events.push_back(Event::mpiSend(25, p + 1, 0, 8));
        proc.events.push_back(Event::leave(p == latest ? 500 : 40, 0));
      }
      // Rank 4 stays empty.
      tr.processes.push_back(std::move(proc));
    }
    traces.push_back(std::move(tr));
  }

  Rng rng(2016);
  for (int trial = 0; trial < 100; ++trial) {
    traces.push_back(randomMessageTrace(rng));
  }

  std::size_t crossedRankStarts = 0;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const DepGraph graph = buildDepGraph(traces[t]);
    CriticalPathResult path;
    ASSERT_NO_THROW(path = extractCriticalPath(graph)) << "trace " << t;
    for (const CriticalPathStep& step : path.steps) {
      if (step.remote) {
        continue;
      }
      ASSERT_EQ(step.fromProcess, step.process) << "trace " << t;
      const auto node = static_cast<std::size_t>(step.node);
      ASSERT_GT(node, graph.rankNodes[step.process].first) << "trace " << t;
      EXPECT_EQ(step.fromTime, graph.nodes[node - 1].time) << "trace " << t;
    }
    // The walk ended on the RankStart of a rank with nodes before it.
    crossedRankStarts +=
        !path.steps.empty() && path.steps.front().fromProcess > 0;
  }
  EXPECT_GT(crossedRankStarts, 0u);
}

}  // namespace
}  // namespace perfvar::analysis
