/// \file trace_tool.cpp
/// Command-line utility around the trace substrate:
///
///   trace_tool generate <scenario> <out.pvt>   write a case-study trace
///   trace_tool generate scale <out.pvt> [ranks [iters]]
///                                              stream the synthetic scale
///                                              scenario straight to disk
///                                              (never held in memory)
///   trace_tool info [--verify] <in.pvt>        format version, file size,
///                                              per-rank blocks; --verify
///                                              adds a salvage dry run
///   trace_tool salvage <in.pvt> <out.pvt>      recover a damaged trace
///   trace_tool stats <in.pvt>                  print trace statistics
///   trace_tool validate <in.pvt>               structural validation
///   trace_tool lint <in.pvt>                   rule-based diagnostics
///                                              (see --json, --fail-on,
///                                              --disable)
///   trace_tool profile <in.pvt>                top functions by time
///   trace_tool analyze <in.pvt>                full variation analysis
///   trace_tool critpath <in.pvt> [fmt]         cross-rank dependency
///                                              analysis (critical path,
///                                              serialization, idle waves)
///   trace_tool dump <in.pvt>                   PVTX text dump to stdout
///   trace_tool slice <in.pvt> <out.pvt> <startSec> <endSec>
///   trace_tool export-json <in.pvt>            analysis as JSON to stdout
///   trace_tool export-csv <in.pvt>             SOS matrix CSV to stdout
///   trace_tool query <in.pvt>                  load once, answer many
///                                              queries read from stdin
///   trace_tool serve <socket>                  long-lived analysis daemon
///                                              on a Unix socket
///   trace_tool connect <socket>                scripted client session:
///                                              commands from stdin, one
///                                              per line
///
/// Global options (see tool_options.hpp, the one shared parser):
/// --threads N runs the analysis commands — and the v2 trace decode — on
/// N worker threads (0 = all hardware threads; output is bit-identical
/// to serial); --format v1|v2 selects the binary layout written by
/// generate/slice/salvage (default v2); --salvage loads
/// damaged inputs in recovery mode (quarantined ranks are excluded from
/// analysis and reported); --lazy opens analysis inputs out-of-core
/// (mmap + per-rank lazy decode, --shard-budget-mb N caps the decoded
/// LRU) so six-figure-rank traces analyze in bounded memory with
/// byte-identical output; --budget-mb N / --session-budget-mb N cap the
/// serve daemon's resident-trace memory (LRU eviction); --help prints
/// the usage text. Unknown options are rejected.
///
/// Exit codes: 0 = success, 1 = runtime/analysis error (unreadable trace,
/// no dominant function, failed validation, ...), 2 = usage error
/// (unknown command/option, malformed arguments). Load failures print a
/// single structured line: `error: <code>: <path>`.
///
/// The `lint` command has its own contract: 0 = clean (no finding at or
/// above the --fail-on severity), 1 = findings at or above it, 2 = the
/// trace could not be loaded at all.
///
/// Scenarios: cosmo-specs | cosmo-specs-fd4 | wrf | pipeline |
/// desync-stencil.
/// Without arguments, a self-contained demo runs (generate + analyze a
/// temporary COSMO-SPECS trace).

#include <cerrno>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "analysis/export.hpp"
#include "analysis/pipeline.hpp"
#include "lint/lint.hpp"
#include "apps/cosmo_specs.hpp"
#include "apps/cosmo_specs_fd4.hpp"
#include "apps/desync_stencil.hpp"
#include "apps/pipeline_chain.hpp"
#include "apps/scale_synthetic.hpp"
#include "apps/wrf.hpp"
#include "engine/engine.hpp"
#include "profile/profile.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "trace/binary_io.hpp"
#include "trace/filter.hpp"
#include "trace/stats.hpp"
#include "trace/text_io.hpp"
#include "trace/view.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

#include "tool_options.hpp"

namespace {

using namespace perfvar;

constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;  ///< analysis/IO errors
constexpr int kExitUsage = 2;    ///< malformed command lines
/// `lint` contract: 1 = findings at/above --fail-on, 2 = unloadable trace.
constexpr int kExitLintFindings = 1;
constexpr int kExitLintLoadError = 2;

/// Self-pipe for `serve` SIGTERM drain: the handler only writes one byte
/// (async-signal-safe); a watcher thread does the actual graceful drain.
int gSigtermPipe[2] = {-1, -1};

extern "C" void onSigterm(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(gSigtermPipe[1], &byte, 1);
}

trace::Trace generateScenario(const std::string& name) {
  if (name == "cosmo-specs") {
    const auto s = apps::buildCosmoSpecs();
    return sim::simulate(s.program, s.simOptions);
  }
  if (name == "cosmo-specs-fd4") {
    const auto s = apps::buildCosmoSpecsFd4();
    return sim::simulate(s.program, s.simOptions);
  }
  if (name == "wrf") {
    const auto s = apps::buildWrf();
    return sim::simulate(s.program, s.simOptions);
  }
  if (name == "pipeline") {
    return apps::buildPipelineTrace({});
  }
  if (name == "desync-stencil") {
    return apps::buildStencilTrace({});
  }
  throw Error("unknown scenario '" + name +
              "' (expected cosmo-specs | cosmo-specs-fd4 | wrf | "
              "pipeline | desync-stencil)");
}

void printUsage(std::ostream& out) {
  out <<
      "usage: trace_tool [--threads N] [--format v1|v2] [--salvage]\n"
      "                  [--lazy] [--verbose] <command> [args]\n"
      "  generate <scenario> <out.pvt>  scenario: cosmo-specs |\n"
      "                                 cosmo-specs-fd4 | wrf | pipeline |\n"
      "                                 desync-stencil\n"
      "  generate scale <out.pvt> [ranks [iterations]]\n"
      "                                 stream the synthetic scale scenario\n"
      "                                 to disk rank by rank (defaults:\n"
      "                                 1024 ranks, 20 iterations); built\n"
      "                                 for 100k-rank traces, pairs with\n"
      "                                 --lazy analysis\n"
      "  info [--verify] <in.pvt>       format version, file size and\n"
      "                                 per-rank block sizes/event counts;\n"
      "                                 --verify adds a salvage dry run\n"
      "                                 (per-rank load report)\n"
      "  salvage <in.pvt> <out.pvt>     recover a damaged trace: load in\n"
      "                                 salvage mode, print the per-rank\n"
      "                                 report, rewrite the recovered data\n"
      "  stats <in.pvt>                 trace statistics\n"
      "  validate <in.pvt>              structural validation\n"
      "  lint <in.pvt>                  rule-based diagnostics; exit 0 =\n"
      "                                 clean, 1 = findings at/above the\n"
      "                                 --fail-on severity, 2 = the trace\n"
      "                                 could not be loaded\n"
      "  profile <in.pvt>               flat profile (top 20)\n"
      "  analyze <in.pvt>               dominant function + SOS analysis\n"
      "  critpath <in.pvt> [text|json|csv]\n"
      "                                 cross-rank dependency analysis:\n"
      "                                 critical path, serialization\n"
      "                                 bottlenecks and idle waves\n"
      "  dump <in.pvt>                  PVTX text dump\n"
      "  slice <in.pvt> <out.pvt> <startSec> <endSec>\n"
      "  export-json <in.pvt>           analysis as JSON\n"
      "  export-csv <in.pvt>            SOS matrix as CSV\n"
      "  query <in.pvt>                 load the trace once, then answer\n"
      "                                 queries from stdin (one per line):\n"
      "                                   analyze [candidate K]\n"
      "                                     [threshold Z] [max-hotspots N]\n"
      "                                   export <text|json|csv|\n"
      "                                     csv-iterations|csv-hotspots>\n"
      "                                     [candidate K] [threshold Z]\n"
      "                                     [max-hotspots N]\n"
      "                                   profile | stats | cache |\n"
      "                                   help | quit\n"
      "  serve <socket>                 long-lived analysis daemon on a\n"
      "                                 Unix socket (docs/PROTOCOL.md);\n"
      "                                 stops on a client 'shutdown';\n"
      "                                 SIGTERM drains gracefully (stops\n"
      "                                 accepting, finishes in-flight\n"
      "                                 requests, fsyncs journals)\n"
      "  connect <socket>               drive a daemon from stdin (one\n"
      "                                 command per line):\n"
      "                                   load <name> <in.pvt>\n"
      "                                   open <name> <segmentFn>\n"
      "                                     [threshold Z] [warmup N]\n"
      "                                   append <name> <chunk.pvt>\n"
      "                                   analyze <name> [options]\n"
      "                                   export <name> <format> [options]\n"
      "                                   lint <name> | stats [name] |\n"
      "                                   evict <name> | subscribe <name> |\n"
      "                                   shutdown | help | quit\n"
      "\n"
      "  --threads N   run the analysis and the v2 trace decode on N\n"
      "                worker threads (0 = all hardware threads); results\n"
      "                are identical to serial\n"
      "  --format V    binary layout written by generate/slice/salvage:\n"
      "                v1 (legacy) or v2 (default)\n"
      "  --salvage     load inputs in recovery mode: damaged ranks are\n"
      "                quarantined (and excluded from analysis) instead\n"
      "                of failing the whole load\n"
      "  --lazy        open analysis inputs out-of-core (PVTF v2 only):\n"
      "                mmap + per-rank lazy decode under an LRU budget;\n"
      "                output is byte-identical to an eager load\n"
      "  --verbose     analyze only: append the thread pool's scheduling\n"
      "                counters (per-worker tasks/chunks/steals) after\n"
      "                the report; with --threads 1 notes the serial run\n"
      "  --shard-budget-mb N    --lazy only: decoded-shard LRU budget\n"
      "                         (MiB, default 256); new shards enter\n"
      "                         cold, so rank sweeps keep what fit\n"
      "  --budget-mb N          serve only: global memory budget over all\n"
      "                         resident traces (MiB, LRU eviction);\n"
      "                         0 = unlimited (default)\n"
      "  --session-budget-mb N  serve only: per-session memory budget\n"
      "                         (MiB); 0 = unlimited (default)\n"
      "  --journal-dir D        serve only: per-trace write-ahead journals\n"
      "                         for live streams; budget evictions spill\n"
      "                         to disk and fault back in on demand\n"
      "  --recover              serve only: replay --journal-dir before\n"
      "                         listening (crash recovery)\n"
      "  --journal-fsync        serve only: fsync after every journal\n"
      "                         record (durable against power loss, not\n"
      "                         just process crash)\n"
      "  --reorder-window-bytes N  serve only: buffer out-of-order stream\n"
      "                         chunks up to N bytes per trace and commit\n"
      "                         them in time order (0 = strict order,\n"
      "                         default)\n"
      "  --send-timeout-ms N    serve only: per-send timeout before a\n"
      "                         stalled client is dropped (0 = block\n"
      "                         forever; default 5000)\n"
      "  --retry N              connect only: connection attempts before\n"
      "                         giving up (default 50)\n"
      "  --retry-delay-ms N     connect only: initial retry delay;\n"
      "                         doubles per attempt up to 2s (default\n"
      "                         100)\n"
      "  --json        lint only: report as JSON instead of text\n"
      "  --fail-on S   lint only: severity that fails the run with exit\n"
      "                code 1 (info | warning | error; default warning)\n"
      "  --disable R   lint only: skip rule id R (repeatable)\n"
      "  --only I[,I...]     lint only: run exactly these rule ids\n"
      "                      (comma-separated, repeatable); unknown ids\n"
      "                      are a usage error (exit 2)\n"
      "  --exclude I[,I...]  lint only: skip these rule ids\n"
      "                      (comma-separated, repeatable); unknown ids\n"
      "                      are a usage error (exit 2)\n"
      "  --help        print this text\n"
      "\n"
      "exit codes: 0 success, 1 runtime/analysis error, 2 usage error\n";
}

int usageError(const std::string& message) {
  std::cerr << "trace_tool: " << message
            << "\n(try 'trace_tool --help')\n";
  return kExitUsage;
}

void printQueryHelp(std::ostream& out) {
  out << "query commands:\n"
         "  analyze [candidate K] [threshold Z] [max-hotspots N]\n"
         "  export <text|json|csv|csv-iterations|csv-hotspots>"
         " [candidate K] [threshold Z] [max-hotspots N]\n"
         "  profile   top functions by inclusive time\n"
         "  critpath  cross-rank dependency analysis (critical path,\n"
         "            serialization bottlenecks, idle waves)\n"
         "  stats     trace statistics\n"
         "  cache     cache hit/miss/eviction/bytes counters\n"
         "  help      this text\n"
         "  quit      end the session\n";
}

/// The `query` session: one engine, many analyses. Commands come from
/// `in` one per line; '#'-prefixed lines are comments. Repeated queries
/// with overlapping options are served from the engine's stage cache.
int runQuerySession(engine::AnalysisEngine& eng, std::istream& in,
                    std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream split(line);
    std::vector<std::string> tokens;
    for (std::string t; split >> t;) {
      tokens.push_back(t);
    }
    if (tokens.empty() || tokens[0][0] == '#') {
      continue;
    }
    const std::string& cmd = tokens[0];
    if (cmd == "quit" || cmd == "exit") {
      break;
    }
    if (cmd == "help") {
      printQueryHelp(out);
    } else if (cmd == "cache") {
      out << engine::formatCacheStats(eng.cacheStats()) << '\n';
    } else if (cmd == "stats") {
      out << trace::formatStats(trace::computeStats(eng.trace()));
    } else if (cmd == "profile") {
      out << profile::formatTopFunctions(eng.trace(), *eng.profile(), 20);
    } else if (cmd == "critpath") {
      out << eng.formatDepReport();
    } else if (cmd == "analyze" || cmd == "export") {
      const bool exporting = cmd == "export";
      if (exporting && tokens.size() < 2) {
        std::cerr << "trace_tool: export needs a format (text | json | "
                     "csv | csv-iterations | csv-hotspots)\n";
        return kExitUsage;
      }
      analysis::ExportFormat format = analysis::ExportFormat::Text;
      analysis::PipelineOptions opts;
      try {
        if (exporting) {
          format = server::parseExportFormat(tokens[1]);
        }
        opts = server::parsePipelineOptions(tokens, exporting ? 2 : 1);
      } catch (const Error& e) {
        std::cerr << "trace_tool: " << e.what() << '\n';
        return kExitUsage;
      }
      if (exporting) {
        eng.exportReport(format, out, opts);
      } else {
        out << eng.formatReport(opts);
      }
    } else {
      std::cerr << "trace_tool: unknown query command '" << cmd
                << "' (try 'help')\n";
      return kExitUsage;
    }
  }
  return kExitOk;
}

void printConnectHelp(std::ostream& out) {
  out << "connect commands:\n"
         "  load <name> <in.pvt>          open a trace file on the server\n"
         "  open <name> <segmentFn> [threshold Z] [warmup N]\n"
         "                                create a live streaming trace\n"
         "  append <name> <chunk.pvt>     stream a v2 chunk into it\n"
         "  analyze <name> [candidate K] [threshold Z] [max-hotspots N]\n"
         "  export <name> <text|json|csv|csv-iterations|csv-hotspots>"
         " [options]\n"
         "  lint <name>                   rule-based diagnostics\n"
         "  stats [name]                  server or per-trace statistics\n"
         "  evict <name>                  drop a resident trace\n"
         "  subscribe <name>              receive alerts of a live trace\n"
         "  shutdown                      stop the server and exit\n"
         "  help                          this text\n"
         "  quit                          end the session\n";
}

/// The `connect` session: drive a running daemon with the same one-line
/// command language as `query`, extended with the multi-trace verbs.
/// Data/Ok/alert payloads go to `out`; Error and Evicted responses are
/// reported on stderr and make the session exit nonzero at the end
/// (after the remaining commands still ran).
int runConnectSession(server::Client& client, std::istream& in,
                      std::ostream& out) {
  bool failed = false;
  const auto show = [&](const server::ClientResponse& response) {
    for (const std::string& alert : response.alerts) {
      out << alert << '\n';
    }
    switch (response.type) {
      case server::FrameType::Ok:
        out << response.payload << '\n';
        break;
      case server::FrameType::Data:
        out << response.payload;
        if (!response.payload.empty() && response.payload.back() != '\n') {
          out << '\n';
        }
        break;
      case server::FrameType::Evicted:
        std::cerr << "trace_tool: trace '" << response.payload
                  << "' was evicted (memory budget)\n";
        failed = true;
        break;
      case server::FrameType::Error: {
        const server::ProtocolError e = response.error();
        std::cerr << "trace_tool: server error: " << errorCodeName(e.code)
                  << ": " << e.message << '\n';
        failed = true;
        break;
      }
      default:
        break;  // Bye is handled by the callers below
    }
  };

  std::string line;
  while (std::getline(in, line)) {
    std::istringstream split(line);
    std::vector<std::string> tokens;
    for (std::string t; split >> t;) {
      tokens.push_back(t);
    }
    if (tokens.empty() || tokens[0][0] == '#') {
      continue;
    }
    const std::string& cmd = tokens[0];
    if (cmd == "quit" || cmd == "exit" || cmd == "close") {
      client.close();
      return failed ? kExitRuntime : kExitOk;
    }
    if (cmd == "shutdown") {
      client.shutdownServer();
      return failed ? kExitRuntime : kExitOk;
    }
    if (cmd == "help") {
      printConnectHelp(out);
      continue;
    }
    // Everything else is `<verb> [args...]`; the server parses the args
    // and answers structured errors for bad ones.
    const auto rest = [&](std::size_t first) {
      std::string joined;
      for (std::size_t i = first; i < tokens.size(); ++i) {
        if (!joined.empty()) {
          joined += ' ';
        }
        joined += tokens[i];
      }
      return joined;
    };
    if (cmd == "append") {
      if (tokens.size() != 3) {
        std::cerr << "trace_tool: append expects <name> <chunk.pvt>\n";
        return kExitUsage;
      }
      std::ifstream chunk(tokens[2], std::ios::binary);
      if (!chunk) {
        std::cerr << "trace_tool: cannot read chunk file '" << tokens[2]
                  << "'\n";
        failed = true;
        continue;
      }
      std::ostringstream image;
      image << chunk.rdbuf();
      show(client.append(tokens[1], image.str()));
    } else if (cmd == "load") {
      show(client.request(server::FrameType::Load, rest(1)));
    } else if (cmd == "open") {
      show(client.request(server::FrameType::Open, rest(1)));
    } else if (cmd == "analyze") {
      show(client.request(server::FrameType::Analyze, rest(1)));
    } else if (cmd == "export") {
      show(client.request(server::FrameType::Export, rest(1)));
    } else if (cmd == "lint") {
      show(client.request(server::FrameType::Lint, rest(1)));
    } else if (cmd == "stats") {
      show(client.request(server::FrameType::Stats, rest(1)));
    } else if (cmd == "evict") {
      show(client.request(server::FrameType::Evict, rest(1)));
    } else if (cmd == "subscribe") {
      show(client.request(server::FrameType::Subscribe, rest(1)));
    } else {
      std::cerr << "trace_tool: unknown connect command '" << cmd
                << "' (try 'help')\n";
      return kExitUsage;
    }
  }
  client.close();  // EOF without quit: still say goodbye
  return failed ? kExitRuntime : kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    tool::ToolOptions options;
    std::string parseError;
    switch (tool::parseToolOptions(argc, argv, options, parseError)) {
      case tool::ParseStatus::Help:
        printUsage(std::cout);
        return kExitOk;
      case tool::ParseStatus::Error:
        return usageError(parseError);
      case tool::ParseStatus::Ok:
        break;
    }
    const std::size_t threads = options.threads;
    const bool salvage = options.salvage;
    const std::vector<std::string>& args = options.positional;
    analysis::PipelineOptions pipelineOptions;
    pipelineOptions.threads = threads;
    trace::BinaryWriteOptions writeOptions;
    writeOptions.version = options.format;
    writeOptions.threads = threads;
    trace::BinaryReadOptions readOptions;
    readOptions.threads = threads;
    if (salvage) {
      readOptions.recovery = trace::RecoveryMode::Salvage;
    }
    trace::TraceViewOptions viewOptions;
    viewOptions.shardBudgetBytes = options.shardBudgetMb * 1024 * 1024;
    if (salvage) {
      viewOptions.recovery = trace::RecoveryMode::Salvage;
    }
    // One loader for every analysis command: --lazy keeps the file on
    // disk behind the out-of-core backend, the default materializes it.
    // Both paths produce the same TraceView interface and identical
    // command output.
    const auto loadView = [&](const std::string& path) {
      if (options.lazy) {
        return trace::TraceView::openFile(path, viewOptions);
      }
      return trace::TraceView::owned(trace::loadBinaryFile(path, readOptions));
    };
    if (args.empty()) {
      // Demo mode: exercise the full round trip on a small scenario.
      std::cout << "(no arguments: running the self-contained demo)\n\n";
      apps::CosmoSpecsConfig cfg;
      cfg.gridX = 4;
      cfg.gridY = 4;
      cfg.timesteps = 20;
      const auto scenario = apps::buildCosmoSpecs(cfg);
      const trace::Trace tr =
          sim::simulate(scenario.program, scenario.simOptions);
      const std::string path = "trace_tool_demo.pvt";
      trace::saveBinaryFile(tr, path);
      const trace::Trace loaded = trace::loadBinaryFile(path);
      std::cout << trace::formatStats(trace::computeStats(loaded)) << '\n';
      const auto result = analysis::analyzeTrace(loaded, pipelineOptions);
      std::cout << analysis::formatAnalysis(loaded, result);
      std::cout << "\nwrote " << path << "; try: trace_tool analyze " << path
                << '\n';
      return kExitOk;
    }

    const std::string& cmd = args[0];
    if (cmd == "generate" && args.size() >= 2 && args[1] == "scale") {
      if (args.size() < 3 || args.size() > 5) {
        return usageError(
            "'generate scale' expects <out.pvt> [ranks [iterations]]");
      }
      if (options.format != trace::kBinaryFormatV2) {
        return usageError("'generate scale' streams PVTF v2; remove "
                          "--format v1");
      }
      apps::ScaleConfig cfg;
      if (args.size() >= 4 && !fmt::parseSize(args[3], cfg.ranks)) {
        return usageError("'generate scale' ranks expects a non-negative "
                          "integer, got '" + args[3] + "'");
      }
      if (args.size() == 5 && !fmt::parseSize(args[4], cfg.iterations)) {
        return usageError("'generate scale' iterations expects a "
                          "non-negative integer, got '" + args[4] + "'");
      }
      const apps::ScaleWriteResult written =
          apps::writeScaleTrace(args[2], cfg);
      std::cout << "wrote " << args[2] << " (" << written.ranks
                << " ranks, " << written.events << " events, "
                << written.culpritRanks
                << " culprit ranks; streamed rank by rank)\n";
      return kExitOk;
    }
    if (cmd == "generate") {
      if (args.size() != 3) {
        return usageError("'generate' expects <scenario> <out.pvt>");
      }
      const trace::Trace tr = generateScenario(args[1]);
      trace::saveBinaryFile(tr, args[2], writeOptions);
      std::cout << "wrote " << args[2] << " ("
                << trace::computeStats(tr).eventCount << " events)\n";
      return kExitOk;
    }
    if (cmd == "slice") {
      if (args.size() != 5) {
        return usageError(
            "'slice' expects <in.pvt> <out.pvt> <startSec> <endSec>");
      }
      double startSec = 0.0;
      double endSec = 0.0;
      if (!fmt::parseDouble(args[3], startSec) || !fmt::parseDouble(args[4], endSec)) {
        return usageError("'slice' expects numeric start/end seconds");
      }
      const trace::Trace tr = trace::loadBinaryFile(args[1], readOptions);
      const trace::Trace sliced = trace::sliceTime(
          tr, trace::secondsToTicks(startSec, tr.resolution),
          trace::secondsToTicks(endSec, tr.resolution));
      trace::saveBinaryFile(sliced, args[2], writeOptions);
      std::cout << "wrote " << args[2] << " (" << sliced.eventCount()
                << " of " << tr.eventCount() << " events)\n";
      return kExitOk;
    }
    if (cmd == "salvage") {
      if (args.size() != 3) {
        return usageError("'salvage' expects <in.pvt> <out.pvt>");
      }
      trace::BinaryReadOptions salvageOptions = readOptions;
      salvageOptions.recovery = trace::RecoveryMode::Salvage;
      trace::LoadReport report;
      salvageOptions.report = &report;
      const trace::Trace tr = trace::loadBinaryFile(args[1], salvageOptions);
      std::cout << trace::formatLoadReport(report);
      trace::saveBinaryFile(tr, args[2], writeOptions);
      std::cout << "wrote " << args[2] << " (" << tr.eventCount()
                << " events, " << report.quarantinedCount() << " of "
                << report.ranks.size() << " ranks quarantined)\n";
      return kExitOk;
    }
    if (cmd == "critpath") {
      // critpath <in.pvt> [text|json|csv] — engine-based so --lazy and
      // --threads apply; a warm re-query would hit the dep stage cache.
      if (args.size() < 2 || args.size() > 3) {
        return usageError("'critpath' expects <in.pvt> [text|json|csv]");
      }
      analysis::ExportFormat format = analysis::ExportFormat::Text;
      if (args.size() == 3) {
        try {
          format = server::parseExportFormat(args[2]);
        } catch (const Error& e) {
          return usageError(e.what());
        }
        if (format != analysis::ExportFormat::Text &&
            format != analysis::ExportFormat::Json &&
            format != analysis::ExportFormat::Csv) {
          return usageError("'critpath' expects a format of text, json or "
                            "csv, got '" + args[2] + "'");
        }
      }
      engine::EngineOptions engineOptions;
      engineOptions.threads = threads;
      auto eng = options.lazy
                     ? engine::AnalysisEngine::fromFileLazy(
                           args[1], engineOptions, viewOptions)
                     : engine::AnalysisEngine::fromFile(args[1],
                                                        engineOptions);
      eng.exportDepReport(format, std::cout);
      return kExitOk;
    }
    if (args.size() != 2) {
      if (cmd == "stats" || cmd == "validate" || cmd == "lint" ||
          cmd == "profile" || cmd == "analyze" || cmd == "dump" ||
          cmd == "export-json" || cmd == "export-csv" || cmd == "query" ||
          cmd == "info") {
        return usageError("'" + cmd + "' expects exactly one <in.pvt>");
      }
      if (cmd == "serve" || cmd == "connect") {
        return usageError("'" + cmd + "' expects exactly one <socket>");
      }
      return usageError("unknown command '" + cmd + "'");
    }
    if (cmd == "serve") {
      if (options.recover && options.journalDir.empty()) {
        return usageError("--recover requires --journal-dir");
      }
      server::ServerOptions serverOptions;
      serverOptions.threads = threads;
      serverOptions.maxResidentBytes = options.budgetMb * 1024 * 1024;
      serverOptions.maxSessionBytes = options.sessionBudgetMb * 1024 * 1024;
      serverOptions.journalDir = options.journalDir;
      serverOptions.recover = options.recover;
      serverOptions.journalFsync = options.journalFsync;
      serverOptions.reorderWindowBytes = options.reorderWindowBytes;
      serverOptions.rehydrate = !options.journalDir.empty();
      serverOptions.sendTimeoutMs = static_cast<int>(options.sendTimeoutMs);
      server::Server srv(serverOptions);
      if (options.recover) {
        std::cout << "recovered " << srv.service().stats().traces
                  << " trace(s) from " << options.journalDir << '\n';
      }
      // SIGTERM = graceful drain: a self-pipe wakes a watcher thread that
      // runs the drain outside signal context (drain() joins threads and
      // takes locks, none of which is async-signal-safe).
      const bool haveDrainPipe = ::pipe(gSigtermPipe) == 0;
      std::thread drainWatcher;
      if (haveDrainPipe) {
        struct sigaction action {};
        action.sa_handler = onSigterm;
        sigemptyset(&action.sa_mask);
        ::sigaction(SIGTERM, &action, nullptr);
        drainWatcher = std::thread([&srv] {
          char byte = 0;
          while (::read(gSigtermPipe[0], &byte, 1) < 0 && errno == EINTR) {
          }
          if (byte == 1) {
            std::cout << "draining (SIGTERM)\n" << std::flush;
            srv.drain();
          }
        });
      }
      srv.listen(args[1]);
      // Scripts wait for this line before connecting; flush it.
      std::cout << "serving on " << args[1] << std::endl;
      srv.run();
      if (haveDrainPipe) {
        // Wake the watcher if the stop came from a client Shutdown frame
        // instead of a signal (byte 0 = nothing to drain).
        const char wake = 0;
        [[maybe_unused]] const ssize_t n =
            ::write(gSigtermPipe[1], &wake, 1);
        drainWatcher.join();
        ::signal(SIGTERM, SIG_DFL);
        ::close(gSigtermPipe[0]);
        ::close(gSigtermPipe[1]);
        gSigtermPipe[0] = gSigtermPipe[1] = -1;
      }
      srv.service().syncJournals();
      std::cout << "server stopped\n";
      return kExitOk;
    }
    if (cmd == "connect") {
      util::ConnectRetryPolicy retryPolicy;
      retryPolicy.retries = options.retry;
      retryPolicy.initialDelayMs = options.retryDelayMs;
      server::Client client = server::Client::connectTo(args[1], retryPolicy);
      return runConnectSession(client, std::cin, std::cout);
    }
    if (cmd == "info") {
      if (options.verify) {
        // A salvage dry run: works on damaged files the strict block
        // inspection below would reject.
        const trace::LoadReport report =
            trace::verifyBinaryFile(args[1], readOptions);
        std::cout << "file: " << args[1] << '\n'
                  << trace::formatLoadReport(report);
        return report.quarantinedCount() > 0 ? kExitRuntime : kExitOk;
      }
      const trace::BinaryFileInfo info = trace::inspectBinaryFile(args[1]);
      std::cout << "file: " << args[1] << '\n'
                << "format: v" << info.version << '\n'
                << "size: " << info.fileSize << " bytes\n"
                << "resolution: " << info.resolution << " ticks/s\n"
                << "events: " << info.eventCount << '\n'
                << "processes: " << info.blocks.size() << '\n'
                << "rank blocks:\n";
      for (std::size_t i = 0; i < info.blocks.size(); ++i) {
        const trace::BinaryBlockInfo& b = info.blocks[i];
        std::cout << "  " << i << " \"" << b.process << "\": " << b.events
                  << " events, " << b.bytes << " bytes\n";
      }
      return kExitOk;
    }
    if (cmd == "query") {
      engine::EngineOptions engineOptions;
      engineOptions.threads = threads;
      auto eng = options.lazy
                     ? engine::AnalysisEngine::fromFileLazy(
                           args[1], engineOptions, viewOptions)
                     : engine::AnalysisEngine::fromFile(args[1],
                                                        engineOptions);
      return runQuerySession(eng, std::cin, std::cout);
    }
    if (cmd == "lint") {
      // --only/--exclude are validated strictly against the built-in
      // registry: a typo'd rule id is a usage error (exit 2), not a
      // silently ineffective filter.
      const lint::RuleRegistry& registry = lint::RuleRegistry::builtin();
      for (const std::string& id : options.lintOnly) {
        if (registry.find(id) == nullptr) {
          return usageError("unknown lint rule id '" + id + "'");
        }
      }
      for (const std::string& id : options.lintExclude) {
        if (registry.find(id) == nullptr) {
          return usageError("unknown lint rule id '" + id + "'");
        }
      }
      // Own exit-code contract (see file comment): a trace that cannot be
      // loaded at all exits 2, not the generic runtime code 1 — scripts
      // can then distinguish "damaged beyond linting" from "has findings".
      trace::TraceView tr;
      try {
        tr = loadView(args[1]);
      } catch (const Error& e) {
        if (!e.path().empty()) {
          std::cerr << "error: " << errorCodeName(e.code()) << ": "
                    << e.path() << '\n';
        } else {
          std::cerr << "trace_tool: " << e.what() << '\n';
        }
        return kExitLintLoadError;
      }
      lint::LintOptions lintOptions;
      lintOptions.threads = threads;
      lintOptions.disabledRules = options.lintDisabled;
      lintOptions.onlyRules = options.lintOnly;
      lintOptions.disabledRules.insert(lintOptions.disabledRules.end(),
                                       options.lintExclude.begin(),
                                       options.lintExclude.end());
      const lint::LintReport report = lint::lintTrace(tr, lintOptions);
      lint::exportLintReport(report,
                             options.lintJson ? analysis::ExportFormat::Json
                                              : analysis::ExportFormat::Text,
                             std::cout);
      return report.hasAtLeast(options.lintFailOn) ? kExitLintFindings
                                                   : kExitOk;
    }
    const trace::TraceView tr = loadView(args[1]);
    if (cmd == "stats") {
      std::cout << trace::formatStats(trace::computeStats(tr));
    } else if (cmd == "validate") {
      const auto issues = lint::validateStructure(tr);
      if (issues.empty()) {
        std::cout << "trace is structurally valid\n";
      } else {
        for (const auto& issue : issues) {
          std::cout << "process " << issue.process << ", event "
                    << issue.eventIndex << ": " << issue.message << '\n';
        }
        return kExitRuntime;
      }
    } else if (cmd == "profile") {
      const auto profile = profile::FlatProfile::build(tr);
      std::cout << profile::formatTopFunctions(tr, profile, 20);
    } else if (cmd == "analyze") {
      // --verbose: collect the thread pool's scheduling counters for this
      // run and append them after the report (stdout, so scripted runs
      // capture both; the report itself is unchanged).
      util::ThreadPoolStats poolStats;
      if (options.verbose) {
        pipelineOptions.poolStats = &poolStats;
      }
      const auto result = analysis::analyzeTrace(tr, pipelineOptions);
      std::cout << analysis::formatAnalysis(tr, result);
      if (options.verbose) {
        if (poolStats.workers.empty()) {
          std::cout << "\nthread pool: serial run (no workers)\n";
        } else {
          std::cout << '\n' << util::formatThreadPoolStats(poolStats);
        }
      }
    } else if (cmd == "dump") {
      // PVTX dumps the whole trace anyway; a lazy view materializes here.
      if (const trace::Trace* eager = tr.eagerOrNull()) {
        trace::writeText(*eager, std::cout);
      } else {
        const trace::Trace materialized = tr.materialize();
        trace::writeText(materialized, std::cout);
      }
    } else if (cmd == "export-json") {
      const auto result = analysis::analyzeTrace(tr, pipelineOptions);
      analysis::exportReport(tr, result, analysis::ExportFormat::Json,
                             std::cout);
    } else if (cmd == "export-csv") {
      const auto result = analysis::analyzeTrace(tr, pipelineOptions);
      analysis::exportReport(tr, result, analysis::ExportFormat::Csv,
                             std::cout);
    } else {
      return usageError("unknown command '" + cmd + "'");
    }
    return kExitOk;
  } catch (const Error& e) {
    // Structured one-liner for load failures that carry a file path
    // (scripts can match on the stable error-code name).
    if (!e.path().empty()) {
      std::cerr << "error: " << errorCodeName(e.code()) << ": " << e.path()
                << '\n';
    } else {
      std::cerr << "trace_tool: " << e.what() << '\n';
    }
    return kExitRuntime;
  } catch (const std::exception& e) {
    std::cerr << "trace_tool: " << e.what() << '\n';
    return kExitRuntime;
  }
}
