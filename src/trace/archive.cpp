#include "trace/archive.hpp"

#include <filesystem>
#include <fstream>
#include <memory>
#include <unordered_map>

#include "trace/binary_io.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace perfvar::trace {

namespace {

std::string anchorPath(const std::string& dir) {
  return dir + "/anchor.pva";
}

std::string definitionsPath(const std::string& dir) {
  return dir + "/definitions.pvt";
}

std::string rankPath(const std::string& dir, std::size_t rank) {
  return dir + "/rank" + std::to_string(rank) + ".pvt";
}

}  // namespace

void saveArchive(const Trace& tr, const std::string& directory,
                 const BinaryWriteOptions& options) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  PERFVAR_REQUIRE(!ec, "cannot create archive directory '" + directory + "'");

  // Anchor (human-readable, cheap to stat).
  {
    std::ofstream anchor(anchorPath(directory));
    PERFVAR_REQUIRE(anchor.good(), "cannot write archive anchor");
    anchor << "PVTA 1\n"
           << "ranks " << tr.processCount() << '\n'
           << "resolution " << tr.resolution << '\n';
    PERFVAR_REQUIRE(anchor.good(), "anchor write failed");
  }

  // Global definitions: a definitions-only PVTF (one empty placeholder
  // process; the PVTF format requires at least one).
  {
    Trace defs;
    defs.resolution = tr.resolution;
    defs.functions = tr.functions;
    defs.metrics = tr.metrics;
    defs.processes.resize(1);
    defs.processes[0].name = "(definitions)";
    saveBinaryFile(defs, definitionsPath(directory), options);
  }

  // One event file per rank: a single-process PVTF without definitions
  // (events reference the global definition ids).
  for (std::size_t r = 0; r < tr.processCount(); ++r) {
    Trace rankTrace;
    rankTrace.resolution = tr.resolution;
    rankTrace.processes.resize(1);
    rankTrace.processes[0] = tr.processes[r];
    saveBinaryFile(rankTrace, rankPath(directory, r), options);
  }
}

ArchiveInfo readArchiveInfo(const std::string& directory) {
  std::ifstream anchor(anchorPath(directory));
  PERFVAR_REQUIRE(anchor.good(),
                  "cannot open archive anchor in '" + directory + "'");
  std::string magic;
  std::uint32_t version = 0;
  anchor >> magic >> version;
  PERFVAR_REQUIRE(magic == "PVTA" && version == 1,
                  "'" + directory + "' is not a PVTA v1 archive");
  ArchiveInfo info;
  std::string key;
  while (anchor >> key) {
    if (key == "ranks") {
      anchor >> info.ranks;
    } else if (key == "resolution") {
      anchor >> info.resolution;
    } else {
      std::string ignored;
      anchor >> ignored;
    }
  }
  PERFVAR_REQUIRE(info.ranks >= 1 && info.resolution >= 1,
                  "archive anchor is incomplete");
  return info;
}

namespace {

Trace loadSelected(const std::string& directory,
                   const std::vector<ProcessId>& ranks, std::size_t total,
                   const ArchiveReadOptions& options) {
  Trace defs = loadBinaryFile(definitionsPath(directory));

  std::unordered_map<ProcessId, ProcessId> remap;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    PERFVAR_REQUIRE(ranks[i] < total, "archive rank out of range");
    PERFVAR_REQUIRE(remap.emplace(ranks[i],
                                  static_cast<ProcessId>(i)).second,
                    "duplicate rank in selection");
  }

  Trace out;
  out.resolution = defs.resolution;
  out.functions = std::move(defs.functions);
  out.metrics = std::move(defs.metrics);
  out.processes.resize(ranks.size());

  // Rank files are independent, so they load in parallel; each task
  // writes only its own process slot (the remap table is read-only), and
  // slot order follows the selection, so the result is identical for
  // every thread count.
  std::unique_ptr<util::ThreadPool> owned;
  util::ThreadPool* pool = util::resolvePool(nullptr, options.threads, owned);
  util::parallelChunks(
      pool, ranks.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          Trace rankTrace = loadBinaryFile(rankPath(directory, ranks[i]));
          PERFVAR_REQUIRE(rankTrace.processCount() == 1,
                          "archive rank file must hold exactly one process");
          PERFVAR_REQUIRE(rankTrace.resolution == out.resolution,
                          "archive rank file resolution mismatch");
          auto& dst = out.processes[i];
          dst.name = std::move(rankTrace.processes[0].name);
          dst.events.reserve(rankTrace.processes[0].events.size());
          for (Event& e : rankTrace.processes[0].events) {
            if (e.kind == EventKind::MpiSend || e.kind == EventKind::MpiRecv) {
              const auto it = remap.find(e.ref);
              if (it == remap.end()) {
                continue;  // peer not part of the selection
              }
              e.ref = it->second;
            }
            dst.events.push_back(e);
          }
        }
      });
  return out;
}

}  // namespace

Trace loadArchive(const std::string& directory,
                  const ArchiveReadOptions& options) {
  const ArchiveInfo info = readArchiveInfo(directory);
  std::vector<ProcessId> all(info.ranks);
  for (std::size_t i = 0; i < info.ranks; ++i) {
    all[i] = static_cast<ProcessId>(i);
  }
  return loadSelected(directory, all, info.ranks, options);
}

Trace loadArchiveRanks(const std::string& directory,
                       const std::vector<ProcessId>& ranks,
                       const ArchiveReadOptions& options) {
  PERFVAR_REQUIRE(!ranks.empty(), "empty rank selection");
  const ArchiveInfo info = readArchiveInfo(directory);
  return loadSelected(directory, ranks, info.ranks, options);
}

}  // namespace perfvar::trace
