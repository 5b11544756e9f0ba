#ifndef PERFVAR_EXAMPLES_TOOL_OPTIONS_HPP
#define PERFVAR_EXAMPLES_TOOL_OPTIONS_HPP

/// \file tool_options.hpp
/// The shared command-line option parser of trace_tool.
///
/// Every trace_tool subcommand accepts the same global options; before
/// this header they were parsed by an inline loop in main() that each new
/// option grew ad hoc. parseToolOptions() is the single definition of
/// that surface: one pass over argv that fills a ToolOptions, rejects
/// unknown flags, and leaves positional arguments (command + its args) in
/// order. Header-only so scripted front ends and the unit tests exercise
/// the exact production parser.
///
/// Exit-code contract shared by every front end built on this parser:
///   0  success
///   1  runtime/analysis error (unreadable trace, failed validation, ...)
///   2  usage error (unknown command/option, malformed arguments) — the
///      caller maps ParseStatus::Error to this
/// (`lint` overloads 1/2 with its own meaning; see trace_tool.cpp.)

#include <cstddef>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "util/format.hpp"

namespace perfvar::tool {

/// All global options of trace_tool, with their defaults.
struct ToolOptions {
  /// --threads N: analysis/decode worker threads (0 = hardware, 1 = serial).
  std::size_t threads = 1;
  /// --salvage: load damaged inputs in recovery mode.
  bool salvage = false;
  /// --verify: info only — add a salvage dry run.
  bool verify = false;
  /// --lazy: open inputs out-of-core (mmap + per-rank lazy decode)
  /// instead of materializing the whole trace up front.
  bool lazy = false;
  /// --verbose: analysis commands append scheduler diagnostics
  /// (per-worker thread-pool counters) after their report.
  bool verbose = false;
  /// --shard-budget-mb N: budget of --lazy's resident shard set (MiB).
  std::size_t shardBudgetMb = 256;
  /// --budget-mb N: serve only — global resident-trace budget (MiB).
  std::size_t budgetMb = 0;
  /// --session-budget-mb N: serve only — per-session budget (MiB).
  std::size_t sessionBudgetMb = 0;
  /// --journal-dir D: serve only — write-ahead journal directory for
  /// live streaming traces (empty = journaling off).
  std::string journalDir;
  /// --recover: serve only — replay --journal-dir on startup.
  bool recover = false;
  /// --journal-fsync: serve only — fsync the journal after every record.
  bool journalFsync = false;
  /// --reorder-window-bytes N: serve only — buffer for out-of-order
  /// streamed chunks (0 = strict time-ordered appends).
  std::size_t reorderWindowBytes = 0;
  /// --send-timeout-ms N: serve only — per-send poll timeout before a
  /// slow peer is treated as dead (0 = block forever).
  std::size_t sendTimeoutMs = 5000;
  /// --retry N: connect only — connection attempts before giving up.
  std::size_t retry = 50;
  /// --retry-delay-ms N: connect only — initial backoff delay; doubles
  /// per attempt up to 2 s.
  std::size_t retryDelayMs = 100;
  /// --json: lint only — JSON report instead of text.
  bool lintJson = false;
  /// --fail-on S: lint only — severity that fails the run.
  lint::Severity lintFailOn = lint::Severity::Warning;
  /// --disable R: lint only — suppressed rule ids (repeatable).
  std::vector<std::string> lintDisabled;
  /// --only I[,I...]: lint only — run exactly these rule ids
  /// (comma-separated, repeatable; validated against the registry).
  std::vector<std::string> lintOnly;
  /// --exclude I[,I...]: lint only — skip these rule ids
  /// (comma-separated, repeatable; validated against the registry).
  std::vector<std::string> lintExclude;
  /// Non-option arguments in order: command, then its operands.
  std::vector<std::string> positional;
};

/// Outcome of parseToolOptions().
enum class ParseStatus {
  Ok,    ///< options filled in, proceed with ToolOptions::positional
  Help,  ///< --help/-h seen: print usage, exit 0
  Error, ///< bad flag/value: report `error`, exit 2
};

/// Append the comma-separated ids of `value` to `out`. Empty segments
/// (leading/trailing/doubled commas, or an empty value) are rejected.
inline bool parseIdList(const std::string& value,
                        std::vector<std::string>& out) {
  std::size_t begin = 0;
  while (begin <= value.size()) {
    const std::size_t comma = value.find(',', begin);
    const std::size_t end = comma == std::string::npos ? value.size() : comma;
    if (end == begin) {
      return false;
    }
    out.push_back(value.substr(begin, end - begin));
    if (comma == std::string::npos) {
      return true;
    }
    begin = comma + 1;
  }
  return false;
}

/// Parse argv[1..argc) into `options`. On Error, `error` holds a one-line
/// message (no trailing newline). Unknown options (any other token
/// starting with '-') are rejected; everything else is positional.
inline ParseStatus parseToolOptions(int argc, const char* const* argv,
                                    ToolOptions& options,
                                    std::string& error) {
  const auto needsValue = [&](const std::string& flag, int i) {
    if (i + 1 >= argc) {
      error = flag + " needs a value";
      return false;
    }
    return true;
  };
  const auto badValue = [&](const std::string& flag,
                            const std::string& expected,
                            const std::string& value) {
    error = flag + " expects " + expected + ", got '" + value + "'";
    return ParseStatus::Error;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return ParseStatus::Help;
    }
    if (arg == "--threads") {
      if (!needsValue(arg, i)) return ParseStatus::Error;
      const std::string value = argv[++i];
      // 0 = all hardware threads; 1 = serial.
      if (!fmt::parseSize(value, options.threads)) {
        return badValue(arg, "a non-negative integer", value);
      }
    } else if (arg == "--shard-budget-mb") {
      if (!needsValue(arg, i)) return ParseStatus::Error;
      const std::string value = argv[++i];
      if (!fmt::parseSize(value, options.shardBudgetMb)) {
        return badValue(arg, "a non-negative integer", value);
      }
    } else if (arg == "--budget-mb") {
      if (!needsValue(arg, i)) return ParseStatus::Error;
      const std::string value = argv[++i];
      if (!fmt::parseSize(value, options.budgetMb)) {
        return badValue(arg, "a non-negative integer", value);
      }
    } else if (arg == "--session-budget-mb") {
      if (!needsValue(arg, i)) return ParseStatus::Error;
      const std::string value = argv[++i];
      if (!fmt::parseSize(value, options.sessionBudgetMb)) {
        return badValue(arg, "a non-negative integer", value);
      }
    } else if (arg == "--journal-dir") {
      if (!needsValue(arg, i)) return ParseStatus::Error;
      options.journalDir = argv[++i];
    } else if (arg == "--reorder-window-bytes") {
      if (!needsValue(arg, i)) return ParseStatus::Error;
      const std::string value = argv[++i];
      if (!fmt::parseSize(value, options.reorderWindowBytes)) {
        return badValue(arg, "a non-negative integer", value);
      }
    } else if (arg == "--send-timeout-ms") {
      if (!needsValue(arg, i)) return ParseStatus::Error;
      const std::string value = argv[++i];
      if (!fmt::parseSize(value, options.sendTimeoutMs)) {
        return badValue(arg, "a non-negative integer", value);
      }
    } else if (arg == "--retry") {
      if (!needsValue(arg, i)) return ParseStatus::Error;
      const std::string value = argv[++i];
      if (!fmt::parseSize(value, options.retry)) {
        return badValue(arg, "a non-negative integer", value);
      }
    } else if (arg == "--retry-delay-ms") {
      if (!needsValue(arg, i)) return ParseStatus::Error;
      const std::string value = argv[++i];
      if (!fmt::parseSize(value, options.retryDelayMs)) {
        return badValue(arg, "a non-negative integer", value);
      }
    } else if (arg == "--recover") {
      options.recover = true;
    } else if (arg == "--journal-fsync") {
      options.journalFsync = true;
    } else if (arg == "--salvage") {
      options.salvage = true;
    } else if (arg == "--verify") {
      options.verify = true;
    } else if (arg == "--lazy") {
      options.lazy = true;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--json") {
      options.lintJson = true;
    } else if (arg == "--fail-on") {
      if (!needsValue(arg, i)) return ParseStatus::Error;
      const std::string value = argv[++i];
      if (value != "info" && value != "warning" && value != "error") {
        return badValue(arg, "info, warning or error", value);
      }
      options.lintFailOn = lint::severityFromName(value);
    } else if (arg == "--disable") {
      if (i + 1 >= argc) {
        error = "--disable needs a rule id";
        return ParseStatus::Error;
      }
      options.lintDisabled.emplace_back(argv[++i]);
    } else if (arg == "--only" || arg == "--exclude") {
      if (i + 1 >= argc) {
        error = arg + " needs a comma-separated rule id list";
        return ParseStatus::Error;
      }
      const std::string value = argv[++i];
      auto& list = arg == "--only" ? options.lintOnly : options.lintExclude;
      if (!parseIdList(value, list)) {
        return badValue(arg, "a comma-separated rule id list", value);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      error = "unknown option '" + arg + "'";
      return ParseStatus::Error;
    } else {
      options.positional.push_back(arg);
    }
  }
  return ParseStatus::Ok;
}

}  // namespace perfvar::tool

#endif  // PERFVAR_EXAMPLES_TOOL_OPTIONS_HPP
