/// Dependency-graph tests: happens-before construction and matching on
/// hand-built traces, ground-truth diagnoses of the two planted workloads
/// (the pipeline's serializing rank, the stencil's idle-wave origin), the
/// determinism guarantee (byte-identical exports at 1/2/8 threads), the
/// engine's dep stage cache (warm re-query is a hit returning the same
/// instance), the three lint rules, the never-throws robustness contract
/// on hostile inputs (cyclic timestamps, unmatched sends, invalid
/// endpoints), and a differential test of the message matcher against a
/// map-per-channel FIFO oracle on seeded random hostile streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/depgraph.hpp"
#include "apps/desync_stencil.hpp"
#include "apps/pipeline_chain.hpp"
#include "engine/engine.hpp"
#include "lint/lint.hpp"
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
        EXPECT_EQ(exportDepAnalysisString(*tr, a, format),
                  exportDepAnalysisString(*tr, reference, format))
            << "threads=" << threads;
      }
    }
  }
}

// ---- export formats --------------------------------------------------------

TEST(DepGraphExport, AnalysisSpecificCsvVariantsThrow) {
  const Trace tr = twoRankMessage();
  const DepAnalysis a = analyzeDependencies(tr);
  EXPECT_THROW(exportDepAnalysisString(tr, a, ExportFormat::CsvIterations),
               Error);
  EXPECT_THROW(exportDepAnalysisString(tr, a, ExportFormat::CsvHotspots),
               Error);
}

TEST(DepGraphExport, CsvHasOneRowPerStep) {
  const Trace tr = apps::buildPipelineTrace({});
  const DepAnalysis a = analyzeDependencies(tr);
  const std::string csv = exportDepAnalysisString(tr, a, ExportFormat::Csv);
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
  EXPECT_NO_THROW(exportDepAnalysisString(tr, a, ExportFormat::Text));
  EXPECT_NO_THROW(exportDepAnalysisString(tr, a, ExportFormat::Json));
  EXPECT_NO_THROW(exportDepAnalysisString(tr, a, ExportFormat::Csv));
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

}  // namespace
}  // namespace perfvar::analysis
