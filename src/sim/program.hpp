#ifndef PERFVAR_SIM_PROGRAM_HPP
#define PERFVAR_SIM_PROGRAM_HPP

/// \file program.hpp
/// Message-passing program descriptions for the simulator.
///
/// A Program is one straight-line operation sequence per rank (SPMD
/// programs simply build the same shape for every rank). Operations are
/// either local (compute, region enter/leave, metric increments) or
/// coordinating (collectives, point-to-point messages); the Simulator
/// resolves the coordination semantics and emits a trace.

#include <cstdint>
#include <string>
#include <vector>

#include "trace/definitions.hpp"
#include "trace/types.hpp"

namespace perfvar::sim {

/// Kind of one program operation.
enum class OpKind : std::uint8_t {
  Compute,      ///< busy for `seconds` in function `fn`
  EnterRegion,  ///< enter structuring function `fn` (zero-cost)
  LeaveRegion,  ///< leave structuring function `fn` (zero-cost)
  Barrier,      ///< world barrier
  Allreduce,    ///< world allreduce of `bytes`
  Bcast,        ///< world broadcast of `bytes` from `root`
  Send,         ///< eager send of `bytes` to `peer` with `tag`
  Recv,         ///< blocking receive from `peer` with `tag`
  Isend,        ///< nonblocking eager send; completes via Wait
  Irecv,        ///< nonblocking receive post; completes via Wait
  Wait,         ///< wait for the request in `request`
};

/// One operation of a rank program.
struct Op {
  OpKind kind = OpKind::Compute;
  trace::FunctionId fn = trace::kInvalidFunction;
  double seconds = 0.0;       ///< Compute: base duration
  double osDelay = 0.0;       ///< Compute: injected interruption (adds wall
                              ///< time but no CPU cycles)
  double fpExceptions = 0.0;  ///< Compute: FP-exception counter increment
  std::uint32_t peer = 0;     ///< Send/Recv peer rank; Bcast root
  std::uint32_t tag = 0;      ///< Send/Recv message tag
  std::uint64_t bytes = 0;    ///< message / collective payload
  std::uint32_t request = 0;  ///< Isend/Irecv/Wait request handle
};

/// Extra attributes of a compute operation.
struct ComputeAttrs {
  double osDelay = 0.0;
  double fpExceptions = 0.0;
};

/// A complete program: definitions plus one op sequence per rank.
struct Program {
  std::size_t ranks = 0;
  trace::FunctionRegistry functions;
  trace::MetricRegistry metrics;
  std::vector<std::vector<Op>> ops;  ///< [rank]

  /// Ids of the auto-registered MPI functions (defined lazily by the
  /// builder when the corresponding op is first used).
  trace::FunctionId fnBarrier = trace::kInvalidFunction;
  trace::FunctionId fnAllreduce = trace::kInvalidFunction;
  trace::FunctionId fnBcast = trace::kInvalidFunction;
  trace::FunctionId fnSend = trace::kInvalidFunction;
  trace::FunctionId fnRecv = trace::kInvalidFunction;
  trace::FunctionId fnIsend = trace::kInvalidFunction;
  trace::FunctionId fnIrecv = trace::kInvalidFunction;
  trace::FunctionId fnWait = trace::kInvalidFunction;
};

/// Convenience builder with per-op validation.
class ProgramBuilder {
public:
  explicit ProgramBuilder(std::size_t ranks);

  std::size_t ranks() const { return program_.ranks; }

  trace::FunctionId function(const std::string& name,
                             const std::string& group = "",
                             trace::Paradigm paradigm =
                                 trace::Paradigm::Compute);
  trace::MetricId metric(const std::string& name, const std::string& unit = "",
                         trace::MetricMode mode =
                             trace::MetricMode::Accumulated);

  void compute(std::uint32_t rank, trace::FunctionId fn, double seconds,
               const ComputeAttrs& attrs = {});
  void enter(std::uint32_t rank, trace::FunctionId fn);
  void leave(std::uint32_t rank, trace::FunctionId fn);
  void barrier(std::uint32_t rank);
  void allreduce(std::uint32_t rank, std::uint64_t bytes);
  void bcast(std::uint32_t rank, std::uint32_t root, std::uint64_t bytes);
  void send(std::uint32_t rank, std::uint32_t peer, std::uint32_t tag,
            std::uint64_t bytes);
  void recv(std::uint32_t rank, std::uint32_t peer, std::uint32_t tag);

  /// Nonblocking point-to-point. The returned request handle must be
  /// passed to wait() (finish() verifies that every request is waited).
  std::uint32_t isend(std::uint32_t rank, std::uint32_t peer,
                      std::uint32_t tag, std::uint64_t bytes);
  std::uint32_t irecv(std::uint32_t rank, std::uint32_t peer,
                      std::uint32_t tag);
  void wait(std::uint32_t rank, std::uint32_t request);

  Program finish();

private:
  std::vector<Op>& rankOps(std::uint32_t rank);

  Program program_;
  std::vector<std::vector<trace::FunctionId>> regionStacks_;
  std::vector<std::uint32_t> nextRequest_;          ///< per rank
  std::vector<std::vector<std::uint32_t>> openRequests_;  ///< per rank
  bool finished_ = false;
};

}  // namespace perfvar::sim

#endif  // PERFVAR_SIM_PROGRAM_HPP
