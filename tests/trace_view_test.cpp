/// \file trace_view_test.cpp
/// The TraceView contract: eager and out-of-core backends are
/// interchangeable. The differential suite pins byte-identical analysis
/// output between the two at several thread counts, the streamed scale
/// writer against the one-shot serializer, LRU bounds of the shard cache,
/// and the salvage path on FaultInjector-corrupted files.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/export.hpp"
#include "analysis/pipeline.hpp"
#include "apps/scale_synthetic.hpp"
#include "lint/lint.hpp"
#include "support/fault_injection.hpp"
#include "trace/binary_io.hpp"
#include "trace/filter.hpp"
#include "trace/stats.hpp"
#include "trace/view.hpp"
#include "util/error.hpp"

namespace {

using namespace perfvar;
namespace ft = perfvar::testing;

/// Fixture files are pid-unique: ctest runs every TEST as its own
/// process from one working directory (see tool_cli_test.cpp).
std::string uniquePath(const std::string& stem) {
  return stem + "_" + std::to_string(getpid()) + ".pvt";
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void writeFile(const std::string& path, const ft::Image& image) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
}

/// Small scale scenario with enough ranks for real variation and a
/// guaranteed culprit subset (hiccupPerMille cranked up).
apps::ScaleConfig smallConfig() {
  apps::ScaleConfig cfg;
  cfg.ranks = 24;
  cfg.iterations = 8;
  cfg.hiccupPerMille = 100;
  return cfg;
}

/// RAII deletion of a fixture file.
struct FileGuard {
  explicit FileGuard(std::string p) : path(std::move(p)) {}
  ~FileGuard() { std::remove(path.c_str()); }
  std::string path;
};

TEST(ScaleSynthetic, StreamedFileMatchesEagerSave) {
  const apps::ScaleConfig cfg = smallConfig();
  const FileGuard streamed(uniquePath("view_streamed"));
  const FileGuard eager(uniquePath("view_eager_save"));

  const apps::ScaleWriteResult written =
      apps::writeScaleTrace(streamed.path, cfg);
  EXPECT_EQ(written.ranks, cfg.ranks);
  EXPECT_GT(written.culpritRanks, 0u);

  const trace::Trace built = apps::buildScaleTrace(cfg);
  EXPECT_EQ(written.events, built.eventCount());
  trace::BinaryWriteOptions v2;
  v2.version = trace::kBinaryFormatV2;
  trace::saveBinaryFile(built, eager.path, v2);

  const std::string streamedBytes = readFile(streamed.path);
  ASSERT_FALSE(streamedBytes.empty());
  EXPECT_EQ(streamedBytes, readFile(eager.path))
      << "V2StreamWriter must be byte-identical to writeBinary v2";
}

TEST(ScaleSynthetic, RankEventsAreDeterministic) {
  const apps::ScaleConfig cfg = smallConfig();
  trace::FunctionRegistry f1, f2;
  trace::MetricRegistry m1, m2;
  const apps::ScaleDefs d1 = apps::registerScaleDefs(f1, m1);
  const apps::ScaleDefs d2 = apps::registerScaleDefs(f2, m2);
  for (trace::ProcessId p = 0; p < cfg.ranks; ++p) {
    EXPECT_EQ(apps::scaleRankEvents(cfg, p, d1),
              apps::scaleRankEvents(cfg, p, d2));
  }
}

/// The tentpole guarantee: every report is byte-identical between the
/// eager and the out-of-core backend, at every thread count.
TEST(TraceViewDifferential, LazyReportsMatchEagerByteForByte) {
  const apps::ScaleConfig cfg = smallConfig();
  const FileGuard file(uniquePath("view_diff"));
  apps::writeScaleTrace(file.path, cfg);

  const trace::Trace eagerTrace = apps::buildScaleTrace(cfg);
  const trace::TraceView eager(eagerTrace);
  const trace::TraceView lazy = trace::TraceView::openFile(file.path);
  ASSERT_TRUE(lazy.valid());
  EXPECT_EQ(lazy.processCount(), eager.processCount());
  EXPECT_EQ(lazy.eventCount(), eager.eventCount());
  EXPECT_EQ(lazy.startTime(), eager.startTime());
  EXPECT_EQ(lazy.endTime(), eager.endTime());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    analysis::PipelineOptions opts;
    opts.threads = threads;
    const auto eagerResult = analysis::analyzeTrace(eager, opts);
    const auto lazyResult = analysis::analyzeTrace(lazy, opts);
    EXPECT_EQ(analysis::formatAnalysis(eager, eagerResult),
              analysis::formatAnalysis(lazy, lazyResult));
    EXPECT_EQ(analysis::exportReportString(eager, eagerResult,
                                           analysis::ExportFormat::Json),
              analysis::exportReportString(lazy, lazyResult,
                                           analysis::ExportFormat::Json));
    EXPECT_EQ(analysis::exportReportString(eager, eagerResult,
                                           analysis::ExportFormat::Csv),
              analysis::exportReportString(lazy, lazyResult,
                                           analysis::ExportFormat::Csv));

    lint::LintOptions lintOpts;
    lintOpts.threads = threads;
    EXPECT_EQ(lint::formatLintReport(lint::lintTrace(eager, lintOpts)),
              lint::formatLintReport(lint::lintTrace(lazy, lintOpts)));
  }

  EXPECT_EQ(trace::formatStats(trace::computeStats(eager)),
            trace::formatStats(trace::computeStats(lazy)));
  EXPECT_TRUE(lint::validateStructure(lazy).empty());
}

TEST(TraceViewDifferential, SubViewsMatchEagerSelect) {
  const apps::ScaleConfig cfg = smallConfig();
  const FileGuard file(uniquePath("view_select"));
  apps::writeScaleTrace(file.path, cfg);

  const trace::Trace eagerTrace = apps::buildScaleTrace(cfg);
  const std::vector<trace::ProcessId> keep{3, 5, 7, 11};
  const trace::Trace eagerSel = trace::selectProcesses(eagerTrace, keep);
  const trace::TraceView lazySel =
      trace::TraceView::openFile(file.path).selectProcesses(keep);

  ASSERT_EQ(lazySel.processCount(), eagerSel.processCount());
  for (trace::ProcessId p = 0; p < lazySel.processCount(); ++p) {
    EXPECT_EQ(lazySel.processName(p), eagerSel.processes[p].name);
    const trace::RankPin pin = lazySel.rank(p);
    const trace::EventSpan events = pin.events();
    ASSERT_EQ(events.size(), eagerSel.processes[p].events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i], eagerSel.processes[p].events[i]);
    }
  }
  EXPECT_EQ(trace::formatStats(trace::computeStats(trace::TraceView(eagerSel))),
            trace::formatStats(trace::computeStats(lazySel)));
}

TEST(TraceViewLru, EvictionStaysWithinBudgetAndPinsSurvive) {
  apps::ScaleConfig cfg = smallConfig();
  cfg.ranks = 32;
  const FileGuard file(uniquePath("view_lru"));
  apps::writeScaleTrace(file.path, cfg);

  // Budget of roughly two decoded shards, so a sequential sweep of the
  // 32 ranks must evict.
  const trace::Trace eagerTrace = apps::buildScaleTrace(cfg);
  const std::size_t shardBytes =
      eagerTrace.processes[0].events.size() * sizeof(trace::Event);
  trace::TraceViewOptions opts;
  opts.shardBudgetBytes = 2 * shardBytes;
  const trace::TraceView lazy = trace::TraceView::openFile(file.path, opts);

  // Hold rank 0 pinned across the sweep: eviction must not invalidate it.
  const trace::RankPin pinned = lazy.rank(0);
  for (trace::ProcessId p = 0; p < cfg.ranks; ++p) {
    const trace::RankPin pin = lazy.rank(p);
    ASSERT_EQ(pin.events().size(), eagerTrace.processes[p].events.size());
  }
  const trace::TraceViewStats stats = lazy.stats();
  EXPECT_GT(stats.shardEvictions, 0u) << "sweep must exceed the budget";
  EXPECT_GE(stats.shardDecodes, static_cast<std::uint64_t>(cfg.ranks));
  // The cache may overshoot by at most the shard being brought in (plus
  // the held pin, whose shard no longer counts once evicted).
  EXPECT_LE(stats.residentBytes, opts.shardBudgetBytes + shardBytes);
  EXPECT_LE(stats.peakResidentBytes, opts.shardBudgetBytes + 2 * shardBytes);

  // The held pin still reads the right data after its shard was evicted.
  const trace::EventSpan span = pinned.events();
  ASSERT_EQ(span.size(), eagerTrace.processes[0].events.size());
  for (std::size_t i = 0; i < span.size(); ++i) {
    ASSERT_EQ(span[i], eagerTrace.processes[0].events[i]);
  }

  // Re-pinning a cached rank is a hit, not a decode.
  const std::uint64_t decodesBefore = lazy.stats().shardDecodes;
  const trace::ProcessId last = static_cast<trace::ProcessId>(cfg.ranks - 1);
  const trace::RankPin again = lazy.rank(last);
  EXPECT_EQ(lazy.stats().shardDecodes, decodesBefore);
  EXPECT_GT(lazy.stats().shardHits, 0u);
  (void)again;
}

/// A 32-rank file of equal-size ranks, lazily opened with a shard budget
/// of 16 shards: about half the decoded trace.
struct HalfBudgetView {
  HalfBudgetView() : file(uniquePath("view_policy")) {
    apps::ScaleConfig cfg = smallConfig();
    cfg.ranks = 32;
    apps::writeScaleTrace(file.path, cfg);
    eager = apps::buildScaleTrace(cfg);
    shardBytes = eager.processes[0].events.size() * sizeof(trace::Event);
    for (const trace::ProcessTrace& proc : eager.processes) {
      EXPECT_EQ(proc.events.size() * sizeof(trace::Event), shardBytes);
    }
    trace::TraceViewOptions opts;
    opts.shardBudgetBytes = 16 * shardBytes;
    view = trace::TraceView::openFile(file.path, opts);
  }

  /// Pin every rank in order, checking each pin against the eager events;
  /// returns the number of shards decoded.
  std::uint64_t sweep() const {
    const std::uint64_t before = view.stats().shardDecodes;
    for (trace::ProcessId p = 0; p < view.processCount(); ++p) {
      const trace::RankPin pin = view.rank(p);
      EXPECT_TRUE(std::equal(pin.events().begin(), pin.events().end(),
                             eager.processes[p].events.begin(),
                             eager.processes[p].events.end()));
    }
    return view.stats().shardDecodes - before;
  }

  FileGuard file;
  trace::Trace eager;
  std::size_t shardBytes = 0;
  trace::TraceView view;
};

TEST(TraceViewLru, LaterSweepsDecodeOnlyTheRanksThatDidNotFit) {
  const HalfBudgetView h;
  // New shards enter the cold end. Of the 16 shards the budget holds,
  // ranks 0..14 stay resident and the last slot cycles through the
  // newcomers, each replacing the previous one. So every sweep after the
  // first decodes ranks 15..31 and hits ranks 0..14.
  EXPECT_EQ(h.sweep(), 32u);
  for (int pass = 2; pass <= 3; ++pass) {
    SCOPED_TRACE(pass);
    const std::uint64_t hitsBefore = h.view.stats().shardHits;
    for (trace::ProcessId p = 0; p < 32; ++p) {
      const std::uint64_t before = h.view.stats().shardDecodes;
      (void)h.view.rank(p);
      EXPECT_EQ(h.view.stats().shardDecodes - before, p < 15 ? 0u : 1u)
          << "rank " << p;
    }
    EXPECT_EQ(h.view.stats().shardHits - hitsBefore, 15u);
  }
  EXPECT_EQ(h.sweep(), 17u);
  EXPECT_LE(h.view.stats().peakResidentBytes, 17 * h.shardBytes);
}

TEST(TraceViewLru, AHitPromotesARankPastTheNextSweep) {
  const HalfBudgetView h;
  for (trace::ProcessId p = 0; p < 32; ++p) {
    (void)h.view.rank(p);
    if (p == 20) {
      (void)h.view.rank(p);  // a hit: rank 20 moves to the hot end
    }
  }
  // Rank 20 outlives the newcomers that followed it, and the next sweep
  // finds it resident.
  for (trace::ProcessId p = 0; p < 20; ++p) {
    (void)h.view.rank(p);
  }
  const std::uint64_t before = h.view.stats().shardDecodes;
  (void)h.view.rank(20);
  EXPECT_EQ(h.view.stats().shardDecodes, before);
  EXPECT_EQ(h.sweep(), 17u);
  EXPECT_LE(h.view.stats().peakResidentBytes, 17 * h.shardBytes);
}

TEST(TraceViewSalvage, CorruptBlocksQuarantineIdenticallyToEagerSalvage) {
  const apps::ScaleConfig cfg = smallConfig();
  const trace::Trace built = apps::buildScaleTrace(cfg);
  const ft::Image clean = ft::encodeImage(built, trace::kBinaryFormatV2);

  // Three distinct faults on three ranks: a zeroed table entry, a lying
  // event count, and flipped bits inside a block payload.
  ft::FaultInjector inj(2026);
  ft::Image corrupt = ft::FaultInjector::zeroTableEntry(clean, 1);
  corrupt = ft::FaultInjector::oversizeCount(corrupt, 2);
  {
    const trace::BinaryFileInfo info = [&] {
      const FileGuard probe(uniquePath("view_salvage_probe"));
      writeFile(probe.path, clean);
      return trace::inspectBinaryFile(probe.path);
    }();
    const trace::BinaryBlockInfo& b3 = info.blocks[3];
    corrupt = inj.bitFlip(corrupt, static_cast<std::size_t>(b3.offset),
                          static_cast<std::size_t>(b3.offset + b3.bytes), 4);
  }
  const FileGuard file(uniquePath("view_salvage"));
  writeFile(file.path, corrupt);

  // Strict lazy open must refuse the file (at open or first access).
  EXPECT_THROW(
      {
        const trace::TraceView strict =
            trace::TraceView::openFile(file.path);
        for (trace::ProcessId p = 0; p < strict.processCount(); ++p) {
          (void)strict.rank(p);
        }
      },
      Error);

  // Salvage: the lazy open quarantines exactly what the eager load does.
  trace::LoadReport eagerReport;
  trace::BinaryReadOptions readOpts;
  readOpts.recovery = trace::RecoveryMode::Salvage;
  readOpts.report = &eagerReport;
  const trace::Trace eagerTrace = trace::loadBinaryFile(file.path, readOpts);

  trace::LoadReport lazyReport;
  trace::TraceViewOptions viewOpts;
  viewOpts.recovery = trace::RecoveryMode::Salvage;
  viewOpts.report = &lazyReport;
  const trace::TraceView lazy =
      trace::TraceView::openFile(file.path, viewOpts);

  EXPECT_EQ(lazyReport.quarantinedCount(), eagerReport.quarantinedCount());
  ASSERT_EQ(lazy.quarantined().size(), eagerTrace.quarantined.size());
  for (std::size_t i = 0; i < lazy.quarantined().size(); ++i) {
    EXPECT_EQ(lazy.quarantined()[i].process,
              eagerTrace.quarantined[i].process);
    EXPECT_EQ(lazy.quarantined()[i].error, eagerTrace.quarantined[i].error);
  }

  // Analysis over the degraded trace is byte-identical too.
  const trace::TraceView eager(eagerTrace);
  analysis::PipelineOptions opts;
  EXPECT_EQ(analysis::formatAnalysis(eager, analysis::analyzeTrace(eager, opts)),
            analysis::formatAnalysis(lazy, analysis::analyzeTrace(lazy, opts)));
  EXPECT_EQ(lint::formatLintReport(lint::lintTrace(eager)),
            lint::formatLintReport(lint::lintTrace(lazy)));
}

TEST(TraceViewSemantics, InvalidViewAndOwnership) {
  const trace::TraceView invalid;
  EXPECT_FALSE(invalid.valid());

  trace::Trace tr = apps::buildScaleTrace([] {
    apps::ScaleConfig c;
    c.ranks = 2;
    c.iterations = 2;
    return c;
  }());
  const std::size_t events = tr.eventCount();
  const trace::TraceView owned = trace::TraceView::owned(std::move(tr));
  EXPECT_TRUE(owned.valid());
  EXPECT_EQ(owned.eventCount(), events);
  EXPECT_NE(owned.eagerOrNull(), nullptr);

  // Copies share one backend (cache keying depends on this).
  const trace::TraceView copy = owned;
  EXPECT_EQ(copy.backendIdentity(), owned.backendIdentity());

  const trace::Trace materialized = owned.materialize();
  EXPECT_EQ(materialized.eventCount(), events);
}

}  // namespace
