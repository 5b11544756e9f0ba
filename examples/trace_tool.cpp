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
///                                              (stats, profile, analyze,
///                                              critpath and export-* are
///                                              each one such query)
///   trace_tool serve <socket>                  long-lived analysis daemon
///                                              on a Unix socket
///   trace_tool connect <socket>                scripted client session:
///                                              commands from stdin, one
///                                              per line
///
/// Global options (see tool_options.hpp, the one shared parser):
/// --threads N runs the analysis commands — and the v2 trace decode — on
/// N worker threads (0 = all hardware threads; output is bit-identical
/// to serial); --salvage loads damaged inputs in recovery mode
/// (quarantined ranks are excluded from analysis and reported); --lazy
/// opens analysis inputs out-of-core (mmap + per-rank lazy decode,
/// --shard-budget-mb N caps the decoded shards kept) so six-figure-rank
/// traces analyze in bounded memory with byte-identical output;
/// --budget-mb N / --session-budget-mb N cap the serve daemon's
/// resident-trace memory (LRU eviction); --help prints the usage text.
/// Unknown options are rejected.
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
#include <iterator>
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
      "usage: trace_tool [--threads N] [--salvage] [--lazy] [--verbose]\n"
      "                  <command> [args]\n"
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
      "                                   critpath [text|json|csv]\n"
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
      "  --salvage     load inputs in recovery mode: damaged ranks are\n"
      "                quarantined (and excluded from analysis) instead\n"
      "                of failing the whole load\n"
      "  --lazy        open analysis inputs out-of-core (PVTF v2 only):\n"
      "                mmap + per-rank lazy decode under a shard budget;\n"
      "                output is byte-identical to an eager load\n"
      "  --verbose     analyze only: append the thread pool's scheduling\n"
      "                counters (per-worker tasks/chunks/idle wakeups)\n"
      "                after the report; with --threads 1 notes the\n"
      "                serial run\n"
      "  --shard-budget-mb N    --lazy only: budget of the decoded shards\n"
      "                         kept (MiB, default 256): the ranks in\n"
      "                         index order that fit, fixed at open;\n"
      "                         other ranks decode at every pin\n"
      "  --budget-mb N          serve only: global memory budget over all\n"
      "                         resident traces (MiB, LRU eviction);\n"
      "                         0 = unlimited (default)\n"
      "  --session-budget-mb N  serve only: per-session memory budget\n"
      "                         (MiB); 0 = unlimited (default)\n"
      "  --journal-dir D        serve only: per-trace write-ahead journals\n"
      "                         for live streams; with it, a budget\n"
      "                         eviction keeps the trace's file or journal\n"
      "                         and faults it back in on demand (without\n"
      "                         it, the evicted name is tombstoned)\n"
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
         "  critpath [text|json|csv]\n"
         "            cross-rank dependency analysis (critical path,\n"
         "            serialization bottlenecks, idle waves)\n"
         "  stats     trace statistics\n"
         "  cache     cache hit/miss/eviction/bytes counters\n"
         "  help      this text\n"
         "  quit      end the session\n";
}

/// The line reader of both sessions: one whitespace-separated command
/// per line, blank and '#'-prefixed lines skipped. False at EOF and on
/// `quit` or `exit`.
bool readCommand(std::istream& in, std::vector<std::string>& tokens) {
  for (std::string line; std::getline(in, line);) {
    std::istringstream split(line);
    tokens.assign(std::istream_iterator<std::string>(split),
                  std::istream_iterator<std::string>());
    if (!tokens.empty() && tokens[0][0] != '#') {
      return tokens[0] != "quit" && tokens[0] != "exit";
    }
  }
  return false;
}

/// One command of the query language. One-shot verbs are such commands
/// too (`export-json in.pvt` is `export json`).
struct QueryCommand {
  enum class Verb { Analyze, Export, Critpath, Profile, Stats, Cache, Help };
  Verb verb = Verb::Help;
  analysis::ExportFormat format = analysis::ExportFormat::Text;
  analysis::PipelineOptions options;
};

/// Parse one tokenized command without touching a trace; throws
/// perfvar::Error, a usage error, for an unknown verb, format or option.
QueryCommand parseQuery(const std::vector<std::string>& tokens) {
  using Verb = QueryCommand::Verb;
  const std::string& cmd = tokens[0];
  QueryCommand command;
  if (cmd == "analyze" || cmd == "export") {
    const bool exporting = cmd == "export";
    if (exporting && tokens.size() < 2) {
      throw Error("export needs a format (text | json | csv | "
                  "csv-iterations | csv-hotspots)");
    }
    command.verb = exporting ? Verb::Export : Verb::Analyze;
    if (exporting) {
      command.format = server::parseExportFormat(tokens[1]);
    }
    command.options = server::parsePipelineOptions(tokens, exporting ? 2 : 1);
  } else if (cmd == "critpath") {
    command.verb = Verb::Critpath;
    if (tokens.size() == 2) {
      command.format = server::parseExportFormat(tokens[1]);
    }
    if (tokens.size() > 2 ||
        command.format == analysis::ExportFormat::CsvIterations ||
        command.format == analysis::ExportFormat::CsvHotspots) {
      throw Error("'critpath' takes one optional format: text, json or csv");
    }
  } else if (cmd == "profile") {
    command.verb = Verb::Profile;
  } else if (cmd == "stats") {
    command.verb = Verb::Stats;
  } else if (cmd == "cache") {
    command.verb = Verb::Cache;
  } else if (cmd != "help") {
    throw Error("unknown query command '" + cmd + "' (try 'help')");
  }
  return command;
}

/// Answer one command from the engine's stage cache. Analysis failures
/// (no dominant function, ...) throw perfvar::Error.
void runQuery(engine::AnalysisEngine& eng, const QueryCommand& command,
              std::ostream& out) {
  switch (command.verb) {
    case QueryCommand::Verb::Analyze:
      out << eng.formatReport(command.options);
      break;
    case QueryCommand::Verb::Export:
      eng.exportReport(command.format, out, command.options);
      break;
    case QueryCommand::Verb::Critpath:
      eng.exportDepReport(command.format, out);
      break;
    case QueryCommand::Verb::Profile:
      out << profile::formatTopFunctions(eng.trace(), *eng.profile(), 20);
      break;
    case QueryCommand::Verb::Stats:
      out << trace::formatStats(trace::computeStats(eng.trace()));
      break;
    case QueryCommand::Verb::Cache:
      out << engine::formatCacheStats(eng.cacheStats()) << '\n';
      break;
    case QueryCommand::Verb::Help:
      printQueryHelp(out);
      break;
  }
}

/// The `query` session: one engine, many analyses, one command per line
/// of `in`. Repeated queries with overlapping options are served from the
/// engine's stage cache.
int runQuerySession(engine::AnalysisEngine& eng, std::istream& in,
                    std::ostream& out) {
  for (std::vector<std::string> tokens; readCommand(in, tokens);) {
    QueryCommand command;
    try {
      command = parseQuery(tokens);
    } catch (const Error& e) {
      std::cerr << "trace_tool: " << e.what() << '\n';
      return kExitUsage;
    }
    runQuery(eng, command, out);
  }
  return kExitOk;
}

/// The query a one-shot analysis verb stands for, without the operands
/// after its trace path; empty for every other verb.
std::vector<std::string> oneShotQuery(const std::string& verb) {
  if (verb == "export-json" || verb == "export-csv") {
    return {"export", verb == "export-json" ? "json" : "csv"};
  }
  if (verb == "analyze" || verb == "profile" || verb == "stats" ||
      verb == "critpath") {
    return {verb};
  }
  return {};
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

  for (std::vector<std::string> tokens; readCommand(in, tokens);) {
    const std::string& cmd = tokens[0];
    if (cmd == "close") {
      break;
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
  client.close();  // quit, exit, close or EOF: say goodbye
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
    std::vector<std::string> args = options.positional;
    trace::BinaryWriteOptions writeOptions;
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
    const bool demo = args.empty();
    if (demo) {
      // Demo mode: exercise the full round trip on a small scenario; the
      // report is the one-shot `analyze` of the written file below.
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
      args = {"analyze", path};
    }

    const std::string& cmd = args[0];
    if (cmd == "generate" && args.size() >= 2 && args[1] == "scale") {
      if (args.size() < 3 || args.size() > 5) {
        return usageError(
            "'generate scale' expects <out.pvt> [ranks [iterations]]");
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
    // Every one-trace analysis verb is a one-line query, parsed before
    // the trace is opened (a bad argument is a usage error without a
    // load) and answered by the tool's one engine; `query` reads its
    // lines from stdin instead.
    std::vector<std::string> query = oneShotQuery(cmd);
    if (cmd == "query" || !query.empty()) {
      const std::size_t maxArgs = cmd == "critpath" ? 3 : 2;
      if (args.size() < 2 || args.size() > maxArgs) {
        return usageError(cmd == "critpath"
                              ? "'critpath' expects <in.pvt> [text|json|csv]"
                              : "'" + cmd + "' expects exactly one <in.pvt>");
      }
      QueryCommand command;
      if (!query.empty()) {
        query.insert(query.end(), args.begin() + 2, args.end());
        try {
          command = parseQuery(query);
        } catch (const Error& e) {
          return usageError(e.what());
        }
      }
      engine::EngineOptions engineOptions;
      engineOptions.threads = threads;
      engine::AnalysisEngine eng(loadView(args[1]), engineOptions);
      if (query.empty()) {
        return runQuerySession(eng, std::cin, std::cout);
      }
      runQuery(eng, command, std::cout);
      if (options.verbose && command.verb == QueryCommand::Verb::Analyze) {
        // The pool's scheduling counters after the unchanged report.
        const util::ThreadPoolStats poolStats = eng.poolStats();
        if (poolStats.workers.empty()) {
          std::cout << "\nthread pool: serial run (no workers)\n";
        } else {
          std::cout << '\n' << util::formatThreadPoolStats(poolStats);
        }
      }
      if (demo) {
        std::cout << "\nwrote " << args[1] << "; try: trace_tool analyze "
                  << args[1] << '\n';
      }
      return kExitOk;
    }
    if (args.size() != 2) {
      if (cmd == "validate" || cmd == "lint" || cmd == "dump" ||
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
    if (cmd != "validate" && cmd != "dump") {
      return usageError("unknown command '" + cmd + "'");
    }
    const trace::TraceView tr = loadView(args[1]);
    if (cmd == "validate") {
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
    } else {
      // PVTX dumps the whole trace anyway; a lazy view materializes here.
      if (const trace::Trace* eager = tr.eagerOrNull()) {
        trace::writeText(*eager, std::cout);
      } else {
        const trace::Trace materialized = tr.materialize();
        trace::writeText(materialized, std::cout);
      }
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
