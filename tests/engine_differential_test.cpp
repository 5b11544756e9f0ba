/// \file engine_differential_test.cpp
/// Seeded random-operation differential of the engine's stage cache.
///
/// One seeded sequence of queries (reports, the five exports, the
/// dependency report and its three exports, lint, profile and analyze,
/// each with a random candidate, outlier threshold, hotspot count and
/// synchronization exclusion) runs against an engine at every
/// maxCacheEntries in {1, 2, 3, 5, 8, unlimited}, over an eager, a lazy
/// (out-of-core, small shard budget) and a salvaged trace. After every
/// operation:
///   - the answer equals a fresh analyzeTrace / exportReport /
///     analyzeDependencies / lintTrace render of the same options;
///   - hits plus misses grew by the stage lookups the operation makes;
///   - the resident derived entries (misses minus evictions minus the
///     profile and lint report, which are never evicted) stay within
///     maxCacheEntries, and an unlimited cache evicts nothing;
///   - a 4-thread engine replaying the same sequence reports the same
///     CacheStats as the 1-thread engine.
/// Labeled `parallel` so the TSan CI job runs the pooled replay.

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/depgraph.hpp"
#include "analysis/export.hpp"
#include "analysis/pipeline.hpp"
#include "apps/cosmo_specs.hpp"
#include "engine/engine.hpp"
#include "lint/lint.hpp"
#include "profile/profile.hpp"
#include "sim/simulator.hpp"
#include "support/fault_injection.hpp"
#include "trace/binary_io.hpp"
#include "trace/view.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfvar {
namespace {

using analysis::ExportFormat;

constexpr ExportFormat kReportFormats[] = {
    ExportFormat::Text, ExportFormat::Json, ExportFormat::Csv,
    ExportFormat::CsvIterations, ExportFormat::CsvHotspots};
constexpr ExportFormat kDepFormats[] = {ExportFormat::Text, ExportFormat::Json,
                                        ExportFormat::Csv};
constexpr double kThresholds[] = {2.0, 2.5, 3.0, 4.5};
constexpr std::size_t kHotspots[] = {3, 10};
/// The dependency query's serialization rank share, by threshold rung.
constexpr double kRankShares[] = {0.5, 0.25};
constexpr std::size_t kCapacities[] = {1, 2, 3, 5, 8, 0};
constexpr int kOperations = 300;
constexpr std::uint64_t kSeed = 0x656e67696e65;  // "engine"

trace::Trace smallCosmo() {
  apps::CosmoSpecsConfig cfg;
  cfg.gridX = 4;
  cfg.gridY = 4;
  cfg.timesteps = 12;
  const auto scenario = apps::buildCosmoSpecs(cfg);
  return sim::simulate(scenario.program, scenario.simOptions);
}

/// smallCosmo() loaded in Salvage mode from a v2 image whose rank 5 block
/// entry is zeroed: rank 5 is quarantined.
trace::Trace salvagedCosmo() {
  const testing::Image image = testing::FaultInjector::zeroTableEntry(
      testing::encodeImage(smallCosmo(), trace::kBinaryFormatV2), 5);
  trace::BinaryReadOptions options;
  options.recovery = trace::RecoveryMode::Salvage;
  return trace::readBinaryBuffer(image.data(), image.size(), options);
}

enum class Op {
  Format,
  Export,
  DepFormat,
  DepExport,
  Lint,
  Profile,
  Analyze,
};

/// One drawn operation: the verb, its format and its options.
struct Operation {
  Op op = Op::Format;
  ExportFormat format = ExportFormat::Text;
  std::size_t candidate = 0;
  std::size_t rung = 0;
  std::size_t hotspots = 0;
  bool excludeSync = true;

  analysis::PipelineOptions pipeline() const {
    analysis::PipelineOptions o;
    o.candidateIndex = candidate;
    o.variation.outlierThreshold = kThresholds[rung];
    o.variation.maxHotspots = kHotspots[hotspots];
    o.dominant.excludeSynchronization = excludeSync;
    return o;
  }

  analysis::DepAnalysisOptions dep() const {
    analysis::DepAnalysisOptions o;
    o.serialization.rankShareThreshold = kRankShares[rung % 2];
    return o;
  }

  std::string describe() const {
    std::ostringstream os;
    os << "op " << static_cast<int>(op) << " format "
       << static_cast<int>(format) << " candidate " << candidate
       << " threshold " << kThresholds[rung] << " hotspots "
       << kHotspots[hotspots] << " excludeSync " << excludeSync;
    return os.str();
  }
};

std::vector<Operation> drawOperations(std::uint64_t seed) {
  Rng rng(seed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
  };
  std::vector<Operation> ops;
  for (int i = 0; i < kOperations; ++i) {
    Operation o;
    // The thirteen answers weigh equally: five exports, three dependency
    // exports, and one each of the rest.
    const std::size_t verb = pick(13);
    if (verb < 5) {
      o.op = Op::Export;
      o.format = kReportFormats[verb];
    } else if (verb < 8) {
      o.op = Op::DepExport;
      o.format = kDepFormats[verb - 5];
    } else {
      o.op = std::array{Op::Format, Op::DepFormat, Op::Lint, Op::Profile,
                        Op::Analyze}[verb - 8];
    }
    o.candidate = pick(4);
    o.rung = pick(std::size(kThresholds));
    o.hotspots = pick(std::size(kHotspots));
    o.excludeSync = pick(2) == 0;
    ops.push_back(o);
  }
  return ops;
}

/// Fresh renders of every answer, memoized per option key.
class Oracle {
public:
  explicit Oracle(const trace::Trace& tr)
      : raw_(tr), analyzed_(trace::TraceView(tr).dropQuarantined()) {}

  /// The answer `o` asks for; "throws" when the pipeline throws.
  std::string answer(const Operation& o) {
    switch (o.op) {
      case Op::Format:
      case Op::Analyze:
        return report(o).text;
      case Op::Export:
        return report(o).exports[static_cast<std::size_t>(o.format)];
      case Op::DepFormat:
        return dep(o).text;
      case Op::DepExport:
        return dep(o).exports[static_cast<std::size_t>(o.format)];
      case Op::Lint:
        if (lint_.empty()) {
          lint_ = lint::formatLintReport(lint::lintTrace(raw_));
        }
        return lint_;
      case Op::Profile:
        if (profile_.empty()) {
          profile_ = profile::formatTopFunctions(
              raw_, profile::FlatProfile::build(analyzed_), 20);
        }
        return profile_;
    }
    return {};
  }

  bool throws(const Operation& o) {
    return (o.op == Op::Format || o.op == Op::Export || o.op == Op::Analyze) &&
           report(o).throws;
  }

private:
  struct Rendered {
    bool throws = false;
    std::string text;
    std::vector<std::string> exports;
  };

  const Rendered& report(const Operation& o) {
    const auto key =
        std::make_tuple(o.candidate, o.rung, o.hotspots, o.excludeSync);
    const auto [it, added] = reports_.try_emplace(key);
    if (added) {
      try {
        const analysis::AnalysisResult r =
            analysis::analyzeTrace(raw_, o.pipeline());
        it->second.text = analysis::formatAnalysis(raw_, r);
        for (const ExportFormat f : kReportFormats) {
          it->second.exports.push_back(
              analysis::exportReportString(raw_, r, f));
        }
      } catch (const Error&) {
        it->second.throws = true;
      }
    }
    return it->second;
  }

  const Rendered& dep(const Operation& o) {
    const auto [it, added] = deps_.try_emplace(o.rung % 2);
    if (added) {
      const analysis::DepAnalysis d =
          analysis::analyzeDependencies(analyzed_, o.dep());
      it->second.text = analysis::formatDepAnalysis(analyzed_, d);
      for (const ExportFormat f : kDepFormats) {
        std::ostringstream os;
        analysis::exportDepAnalysis(analyzed_, d, f, os);
        it->second.exports.push_back(os.str());
      }
    }
    return it->second;
  }

  trace::TraceView raw_;
  trace::TraceView analyzed_;
  std::map<std::tuple<std::size_t, std::size_t, std::size_t, bool>, Rendered>
      reports_;
  std::map<std::size_t, Rendered> deps_;
  std::string lint_;
  std::string profile_;
};

/// The engine's answer to `o` (exceptions propagate).
std::string engineAnswer(engine::AnalysisEngine& eng, const Operation& o) {
  switch (o.op) {
    case Op::Format:
      return eng.formatReport(o.pipeline());
    case Op::Export: {
      std::ostringstream os;
      eng.exportReport(o.format, os, o.pipeline());
      return os.str();
    }
    case Op::DepFormat:
      return eng.formatDepReport(o.dep());
    case Op::DepExport: {
      std::ostringstream os;
      eng.exportDepReport(o.format, os, o.dep());
      return os.str();
    }
    case Op::Lint:
      return lint::formatLintReport(*eng.lintReport());
    case Op::Profile:
      return profile::formatTopFunctions(eng.trace(), *eng.profile(), 20);
    case Op::Analyze: {
      const engine::EngineResult r = eng.analyze(o.pipeline());
      return analysis::formatAnalysis(eng.trace(), *r.selection, *r.sos,
                                      *r.variation);
    }
  }
  return {};
}

std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t> fields(
    const engine::CacheStats& s) {
  return {s.hits, s.misses, s.evictions, s.bytes};
}

/// One trace under test: the in-memory reference and a way to open the
/// view an engine runs on.
struct Subject {
  trace::Trace reference;
  std::function<trace::TraceView()> open;
};

void runDifferential(const Subject& subject) {
  Oracle oracle(subject.reference);
  const std::vector<Operation> ops = drawOperations(kSeed);
  for (const std::size_t capacity : kCapacities) {
    SCOPED_TRACE("maxCacheEntries=" + std::to_string(capacity));
    engine::EngineOptions serialOptions;
    serialOptions.maxCacheEntries = capacity;
    engine::EngineOptions pooledOptions = serialOptions;
    pooledOptions.threads = 4;
    engine::AnalysisEngine serial(subject.open(), serialOptions);
    engine::AnalysisEngine pooled(subject.open(), pooledOptions);
    bool profileComputed = false;
    bool lintComputed = false;
    std::uint64_t bytesBefore = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Operation& o = ops[i];
      SCOPED_TRACE("operation " + std::to_string(i) + ": " + o.describe());
      const engine::CacheStats before = serial.cacheStats();
      for (engine::AnalysisEngine* eng : {&serial, &pooled}) {
        if (oracle.throws(o)) {
          EXPECT_THROW((void)engineAnswer(*eng, o), Error);
        } else {
          EXPECT_EQ(engineAnswer(*eng, o), oracle.answer(o));
        }
      }
      const engine::CacheStats after = serial.cacheStats();
      EXPECT_EQ(fields(pooled.cacheStats()), fields(after));

      // Stage lookups: analyze reads the profile, the dominant ranking,
      // SOS and variation (stopping after the ranking when the candidate
      // does not exist); a cold lint reads the profile, the default
      // ranking and the dependency analysis besides its own entry.
      std::uint64_t lookups = 1;
      switch (o.op) {
        case Op::Format:
        case Op::Export:
        case Op::Analyze:
          lookups = oracle.throws(o) ? 2 : 4;
          profileComputed = true;
          break;
        case Op::Lint:
          lookups = lintComputed ? 1 : 4;
          lintComputed = profileComputed = true;
          break;
        case Op::Profile:
          profileComputed = true;
          break;
        case Op::DepFormat:
        case Op::DepExport:
          break;
      }
      EXPECT_EQ(after.hits + after.misses - before.hits - before.misses,
                lookups);
      const std::uint64_t pinned =
          (profileComputed ? 1u : 0u) + (lintComputed ? 1u : 0u);
      const std::uint64_t resident = after.misses - pinned - after.evictions;
      if (capacity == 0) {
        EXPECT_EQ(after.evictions, 0u);
        EXPECT_GE(after.bytes, bytesBefore);
      } else {
        EXPECT_LE(resident, capacity);
      }
      bytesBefore = after.bytes;
      if (::testing::Test::HasFailure()) {
        return;  // the first divergence is the reproducer
      }
    }
    if (capacity != 0 && capacity < 5) {
      EXPECT_GT(serial.cacheStats().evictions, 0u);
    }
  }
}

/// Fixture files are pid-unique: ctest runs every TEST as its own process
/// from one working directory.
struct TempFile {
  explicit TempFile(const char* stem)
      : path(std::string(stem) + "_" + std::to_string(getpid()) + ".pvt") {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(EngineDifferential, EagerTrace) {
  const trace::Trace tr = smallCosmo();
  runDifferential(
      {tr, [&] { return trace::TraceView::owned(trace::Trace(tr)); }});
}

TEST(EngineDifferential, LazyTraceWithASmallShardBudget) {
  const trace::Trace tr = smallCosmo();
  const TempFile file("engine_differential_lazy");
  trace::saveBinaryFile(tr, file.path);
  trace::TraceViewOptions vopts;
  // A quarter of the decoded trace: most ranks decode on every pass.
  vopts.shardBudgetBytes = tr.eventCount() * sizeof(trace::Event) / 4;
  runDifferential(
      {tr, [&] { return trace::TraceView::openFile(file.path, vopts); }});
}

TEST(EngineDifferential, SalvagedTrace) {
  const trace::Trace tr = salvagedCosmo();
  ASSERT_EQ(trace::TraceView(tr).quarantined().size(), 1u);
  runDifferential(
      {tr, [&] { return trace::TraceView::owned(trace::Trace(tr)); }});
}

}  // namespace
}  // namespace perfvar
