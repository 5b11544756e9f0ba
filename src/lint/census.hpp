#ifndef PERFVAR_LINT_CENSUS_HPP
#define PERFVAR_LINT_CENSUS_HPP

/// \file census.hpp
/// Taking a lint::TraceCensus in lintTrace()'s per-rank phase (internal
/// to the lint library).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "lint/lint.hpp"

namespace perfvar::lint {

/// Fills a TraceCensus from the ranks of the per-rank phase. Each worker
/// tallies its ranks through its own Tally and appends each rank's
/// records as one slice, so what the census says about a rank does not
/// depend on which worker took it.
class CensusBuilder {
  struct Scratch;

public:
  /// `out` must be empty and outlive the builder.
  CensusBuilder(const trace::TraceView& trace, TraceCensus& out);
  ~CensusBuilder();

  CensusBuilder(const CensusBuilder&) = delete;
  CensusBuilder& operator=(const CensusBuilder&) = delete;

  /// Tallies ranks on one thread with scratch tables borrowed from the
  /// builder until destruction.
  class Tally {
  public:
    explicit Tally(CensusBuilder& builder);
    ~Tally();

    Tally(const Tally&) = delete;
    Tally& operator=(const Tally&) = delete;

    /// Tally one rank from its shared pin.
    void add(const RankEvents& rank);

  private:
    struct Replay;

    TraceCensus::Channel& channel(trace::ProcessId peer);
    TraceCensus::Invocations& function(trace::FunctionId f);
    void message(bool isSend, const trace::Event& e);
    /// Clear the lookup entries of the current rank's records.
    void resetSlots();

    CensusBuilder& builder_;
    std::unique_ptr<Scratch> scratch_;
    trace::ProcessId process_ = 0;
  };

private:
  std::size_t processCount_;
  std::size_t functionCount_;
  std::mutex mutex_;  ///< guards idle_ and out_
  std::vector<std::unique_ptr<Scratch>> idle_;
  TraceCensus& out_;
};

}  // namespace perfvar::lint

#endif  // PERFVAR_LINT_CENSUS_HPP
