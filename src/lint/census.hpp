#ifndef PERFVAR_LINT_CENSUS_HPP
#define PERFVAR_LINT_CENSUS_HPP

/// \file census.hpp
/// The census fold of lintTrace()'s per-rank phase (internal to the lint
/// library): one sweep over each rank's pin takes its TraceCensus records
/// and checks the six per-rank structural rules.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace perfvar::lint {

/// The per-rank rules the fold checks, named after their rule ids.
enum class FoldCheck : std::uint8_t {
  ClockMonotonicity,
  StackBalance,
  UndefinedFunctionRef,
  UndefinedMetricRef,
  MessageEndpoints,
  ZeroDuration,
};

/// One finding of a per-rank structural rule, at event `event` of the
/// rank (events.size() for the end of the stream).
struct FoldFinding {
  FoldCheck check;
  std::size_t event;
  std::string message;
};

/// Folds the ranks of the per-rank phase into a TraceCensus. Each worker
/// folds a range of ranks through its own Tally, which appends the
/// range's records once, when it is destroyed, each rank's records as one
/// slice. So what the census says about a rank does not depend on which
/// worker took it. A rank's findings stay with the Tally.
class CensusBuilder {
  struct Scratch;

public:
  /// `out` must be empty and outlive the builder.
  CensusBuilder(const trace::TraceView& trace, TraceCensus& out);
  ~CensusBuilder();

  CensusBuilder(const CensusBuilder&) = delete;
  CensusBuilder& operator=(const CensusBuilder&) = delete;

  /// The findings of the fold of `rank`, in event order; rethrows the
  /// rank's pin error, and throws when the rank was not folded.
  static std::span<const FoldFinding> findings(const RankEvents& rank);

  /// Folds ranks on one thread with scratch tables borrowed from the
  /// builder until destruction, which appends the folded ranks' records
  /// to the census.
  class Tally {
  public:
    explicit Tally(CensusBuilder& builder);
    ~Tally();

    Tally(const Tally&) = delete;
    Tally& operator=(const Tally&) = delete;

    /// Fold one rank from its shared pin; findings(rank) holds until the
    /// next add().
    void add(RankEvents& rank);

  private:
    /// Returns the error of a stream that does not replay.
    std::exception_ptr fold(trace::EventSpan events);
    void record(FoldCheck check, std::size_t event, std::string message);
    TraceCensus::Channel& channel(trace::ProcessId peer);
    /// Index of f's record in functions, added at the rank's first use.
    std::uint32_t function(trace::FunctionId f);
    /// Sort the rank's records and keep them for the census; clear the
    /// lookups.
    void keep(std::exception_ptr error, bool pinFailed);

    CensusBuilder& builder_;
    std::unique_ptr<Scratch> scratch_;
    trace::ProcessId process_ = 0;
  };

private:
  const trace::TraceView& trace_;
  std::mutex mutex_;  ///< guards idle_ and out_
  std::vector<std::unique_ptr<Scratch>> idle_;
  TraceCensus& out_;
};

}  // namespace perfvar::lint

#endif  // PERFVAR_LINT_CENSUS_HPP
