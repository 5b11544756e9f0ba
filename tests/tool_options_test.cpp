/// \file tool_options_test.cpp
/// The shared trace_tool option parser (examples/tool_options.hpp): the
/// exact parser the production front end uses, exercised directly —
/// defaults, every flag, unknown-flag rejection, missing/malformed
/// values, and positional passthrough order.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "examples/tool_options.hpp"
#include "util/format.hpp"

namespace {

using namespace perfvar;
using tool::ParseStatus;
using tool::ToolOptions;

/// Run the parser over a brace-list of argv tokens (argv[0] included).
ParseStatus parse(std::vector<const char*> argv, ToolOptions& options,
                  std::string& error) {
  argv.insert(argv.begin(), "trace_tool");
  return tool::parseToolOptions(static_cast<int>(argv.size()), argv.data(),
                                options, error);
}

TEST(ToolOptions, DefaultsMatchDocumentedContract) {
  ToolOptions options;
  std::string error;
  EXPECT_EQ(parse({"analyze", "in.pvt"}, options, error), ParseStatus::Ok);
  EXPECT_EQ(options.threads, 1u);
  EXPECT_FALSE(options.salvage);
  EXPECT_FALSE(options.lazy);
  EXPECT_EQ(options.shardBudgetMb, 256u);
  EXPECT_EQ(options.lintFailOn, lint::Severity::Warning);
  EXPECT_TRUE(options.journalDir.empty());
  EXPECT_FALSE(options.recover);
  EXPECT_FALSE(options.journalFsync);
  EXPECT_EQ(options.reorderWindowBytes, 0u);
  EXPECT_EQ(options.sendTimeoutMs, 5000u);
  EXPECT_EQ(options.retry, 50u);
  EXPECT_EQ(options.retryDelayMs, 100u);
  EXPECT_EQ(options.positional,
            (std::vector<std::string>{"analyze", "in.pvt"}));
}

TEST(ToolOptions, DurabilityAndRetryFlagsParse) {
  ToolOptions options;
  std::string error;
  EXPECT_EQ(parse({"--journal-dir", "wal", "--recover", "--journal-fsync",
                   "--reorder-window-bytes", "65536", "--send-timeout-ms",
                   "250", "serve", "a.sock"},
                  options, error),
            ParseStatus::Ok)
      << error;
  EXPECT_EQ(options.journalDir, "wal");
  EXPECT_TRUE(options.recover);
  EXPECT_TRUE(options.journalFsync);
  EXPECT_EQ(options.reorderWindowBytes, 65536u);
  EXPECT_EQ(options.sendTimeoutMs, 250u);
  EXPECT_EQ(options.positional,
            (std::vector<std::string>{"serve", "a.sock"}));

  ToolOptions connectOptions;
  EXPECT_EQ(parse({"--retry", "3", "--retry-delay-ms", "10", "connect",
                   "a.sock"},
                  connectOptions, error),
            ParseStatus::Ok);
  EXPECT_EQ(connectOptions.retry, 3u);
  EXPECT_EQ(connectOptions.retryDelayMs, 10u);

  // Value flags reject missing and malformed values like every other.
  for (const char* flag : {"--journal-dir", "--reorder-window-bytes",
                           "--send-timeout-ms", "--retry",
                           "--retry-delay-ms"}) {
    ToolOptions o;
    EXPECT_EQ(parse({flag}, o, error), ParseStatus::Error) << flag;
  }
  ToolOptions o;
  EXPECT_EQ(parse({"--reorder-window-bytes", "lots"}, o, error),
            ParseStatus::Error);
  EXPECT_EQ(parse({"--retry", "-1"}, o, error), ParseStatus::Error);
}

TEST(ToolOptions, AllFlagsParse) {
  ToolOptions options;
  std::string error;
  EXPECT_EQ(parse({"--threads", "8", "--salvage",
                   "--verify", "--lazy", "--shard-budget-mb", "64",
                   "--budget-mb", "512", "--session-budget-mb", "128",
                   "--json", "--fail-on", "error", "--disable",
                   "clock-monotonicity", "--disable", "stack-balance",
                   "lint", "in.pvt"},
                  options, error),
            ParseStatus::Ok)
      << error;
  EXPECT_EQ(options.threads, 8u);
  EXPECT_TRUE(options.salvage);
  EXPECT_TRUE(options.verify);
  EXPECT_TRUE(options.lazy);
  EXPECT_EQ(options.shardBudgetMb, 64u);
  EXPECT_EQ(options.budgetMb, 512u);
  EXPECT_EQ(options.sessionBudgetMb, 128u);
  EXPECT_TRUE(options.lintJson);
  EXPECT_EQ(options.lintFailOn, lint::Severity::Error);
  EXPECT_EQ(options.lintDisabled,
            (std::vector<std::string>{"clock-monotonicity",
                                      "stack-balance"}));
  EXPECT_EQ(options.positional,
            (std::vector<std::string>{"lint", "in.pvt"}));
}

TEST(ToolOptions, OnlyAndExcludeParseCommaLists) {
  ToolOptions options;
  std::string error;
  EXPECT_EQ(parse({"--only", "stack-balance,zero-duration", "--only",
                   "idle-wave-propagation", "--exclude",
                   "clock-monotonicity,sync-coverage", "lint", "in.pvt"},
                  options, error),
            ParseStatus::Ok)
      << error;
  // Repeated flags append; comma lists split in order.
  EXPECT_EQ(options.lintOnly,
            (std::vector<std::string>{"stack-balance", "zero-duration",
                                      "idle-wave-propagation"}));
  EXPECT_EQ(options.lintExclude,
            (std::vector<std::string>{"clock-monotonicity",
                                      "sync-coverage"}));
  EXPECT_EQ(options.positional,
            (std::vector<std::string>{"lint", "in.pvt"}));
}

TEST(ToolOptions, OnlyAndExcludeRejectMalformedLists) {
  for (const char* flag : {"--only", "--exclude"}) {
    ToolOptions options;
    std::string error;
    EXPECT_EQ(parse({flag}, options, error), ParseStatus::Error)
        << flag << " without a value must be rejected";
    // Empty segments: leading, trailing, doubled commas, empty value.
    for (const char* bad : {"", ",", "a,", ",a", "a,,b"}) {
      ToolOptions o;
      EXPECT_EQ(parse({flag, bad}, o, error), ParseStatus::Error)
          << flag << " '" << bad << "'";
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(ToolOptions, OptionsInterleaveWithPositionals) {
  ToolOptions options;
  std::string error;
  EXPECT_EQ(parse({"generate", "--salvage", "scale", "out.pvt",
                   "--threads", "2", "100000"},
                  options, error),
            ParseStatus::Ok);
  EXPECT_EQ(options.positional, (std::vector<std::string>{
                                    "generate", "scale", "out.pvt",
                                    "100000"}));
  EXPECT_TRUE(options.salvage);
  EXPECT_EQ(options.threads, 2u);
}

TEST(ToolOptions, HelpShortCircuits) {
  ToolOptions options;
  std::string error;
  EXPECT_EQ(parse({"--help"}, options, error), ParseStatus::Help);
  EXPECT_EQ(parse({"analyze", "-h"}, options, error), ParseStatus::Help);
}

TEST(ToolOptions, UnknownFlagsAreRejected) {
  ToolOptions options;
  std::string error;
  EXPECT_EQ(parse({"--no-such-flag", "analyze"}, options, error),
            ParseStatus::Error);
  EXPECT_EQ(error, "unknown option '--no-such-flag'");
  // v1 is read-only: there is no output-layout flag any more.
  EXPECT_EQ(parse({"--format", "v1", "analyze"}, options, error),
            ParseStatus::Error);
  EXPECT_EQ(error, "unknown option '--format'");
  EXPECT_EQ(parse({"-x"}, options, error), ParseStatus::Error);
}

TEST(ToolOptions, MissingAndMalformedValues) {
  const std::vector<const char*> valueFlags{
      "--threads",   "--shard-budget-mb", "--budget-mb",
      "--session-budget-mb", "--fail-on", "--disable"};
  for (const char* flag : valueFlags) {
    ToolOptions options;
    std::string error;
    EXPECT_EQ(parse({flag}, options, error), ParseStatus::Error)
        << flag << " without a value must be rejected";
    EXPECT_FALSE(error.empty());
  }

  ToolOptions options;
  std::string error;
  EXPECT_EQ(parse({"--threads", "-3"}, options, error), ParseStatus::Error);
  EXPECT_EQ(parse({"--threads", "many"}, options, error),
            ParseStatus::Error);
  EXPECT_EQ(parse({"--fail-on", "fatal"}, options, error),
            ParseStatus::Error);
  EXPECT_EQ(parse({"--shard-budget-mb", "1.5"}, options, error),
            ParseStatus::Error);
}

TEST(ToolOptions, SizeAndDoubleParsers) {
  std::size_t n = 0;
  EXPECT_TRUE(fmt::parseSize("42", n));
  EXPECT_EQ(n, 42u);
  EXPECT_FALSE(fmt::parseSize("", n));
  EXPECT_FALSE(fmt::parseSize("4 2", n));
  EXPECT_FALSE(fmt::parseSize("-1", n));
  EXPECT_FALSE(fmt::parseSize("0x10", n));

  double d = 0.0;
  EXPECT_TRUE(fmt::parseDouble("2.5", d));
  EXPECT_EQ(d, 2.5);
  EXPECT_TRUE(fmt::parseDouble("-1e-3", d));
  EXPECT_FALSE(fmt::parseDouble("2.5x", d));
  EXPECT_FALSE(fmt::parseDouble("", d));
  d = 1.0;
  EXPECT_FALSE(fmt::parseDouble("nan", d));
  EXPECT_FALSE(fmt::parseDouble("inf", d));
  EXPECT_FALSE(fmt::parseDouble("-infinity", d));
  EXPECT_FALSE(fmt::parseDouble("1e999", d));
  EXPECT_EQ(d, 1.0);
}

}  // namespace
