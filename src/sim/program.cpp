#include "sim/program.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace perfvar::sim {

ProgramBuilder::ProgramBuilder(std::size_t ranks) {
  PERFVAR_REQUIRE(ranks >= 1, "program needs at least one rank");
  program_.ranks = ranks;
  program_.ops.resize(ranks);
  regionStacks_.resize(ranks);
  nextRequest_.assign(ranks, 0);
  openRequests_.resize(ranks);
}

trace::FunctionId ProgramBuilder::function(const std::string& name,
                                           const std::string& group,
                                           trace::Paradigm paradigm) {
  return program_.functions.intern(name, group, paradigm);
}

trace::MetricId ProgramBuilder::metric(const std::string& name,
                                       const std::string& unit,
                                       trace::MetricMode mode) {
  return program_.metrics.intern(name, unit, mode);
}

std::vector<Op>& ProgramBuilder::rankOps(std::uint32_t rank) {
  PERFVAR_REQUIRE(!finished_, "builder already finished");
  PERFVAR_REQUIRE(rank < program_.ranks, "invalid rank");
  return program_.ops[rank];
}

void ProgramBuilder::compute(std::uint32_t rank, trace::FunctionId fn,
                             double seconds, const ComputeAttrs& attrs) {
  PERFVAR_REQUIRE(fn < program_.functions.size(),
                  "compute references undefined function");
  PERFVAR_REQUIRE(seconds >= 0.0 && attrs.osDelay >= 0.0,
                  "durations must be non-negative");
  Op op;
  op.kind = OpKind::Compute;
  op.fn = fn;
  op.seconds = seconds;
  op.osDelay = attrs.osDelay;
  op.fpExceptions = attrs.fpExceptions;
  rankOps(rank).push_back(op);
}

void ProgramBuilder::enter(std::uint32_t rank, trace::FunctionId fn) {
  PERFVAR_REQUIRE(fn < program_.functions.size(),
                  "enter references undefined function");
  Op op;
  op.kind = OpKind::EnterRegion;
  op.fn = fn;
  rankOps(rank).push_back(op);
  regionStacks_[rank].push_back(fn);
}

void ProgramBuilder::leave(std::uint32_t rank, trace::FunctionId fn) {
  PERFVAR_REQUIRE(fn < program_.functions.size(),
                  "leave references undefined function");
  auto& ops = rankOps(rank);
  PERFVAR_REQUIRE(!regionStacks_[rank].empty() &&
                      regionStacks_[rank].back() == fn,
                  "leave does not match innermost region");
  Op op;
  op.kind = OpKind::LeaveRegion;
  op.fn = fn;
  ops.push_back(op);
  regionStacks_[rank].pop_back();
}

void ProgramBuilder::barrier(std::uint32_t rank) {
  if (program_.fnBarrier == trace::kInvalidFunction) {
    program_.fnBarrier =
        program_.functions.intern("MPI_Barrier", "MPI", trace::Paradigm::MPI);
  }
  Op op;
  op.kind = OpKind::Barrier;
  op.fn = program_.fnBarrier;
  rankOps(rank).push_back(op);
}

void ProgramBuilder::allreduce(std::uint32_t rank, std::uint64_t bytes) {
  if (program_.fnAllreduce == trace::kInvalidFunction) {
    program_.fnAllreduce = program_.functions.intern("MPI_Allreduce", "MPI",
                                                     trace::Paradigm::MPI);
  }
  Op op;
  op.kind = OpKind::Allreduce;
  op.fn = program_.fnAllreduce;
  op.bytes = bytes;
  rankOps(rank).push_back(op);
}

void ProgramBuilder::bcast(std::uint32_t rank, std::uint32_t root,
                           std::uint64_t bytes) {
  PERFVAR_REQUIRE(root < program_.ranks, "invalid bcast root");
  if (program_.fnBcast == trace::kInvalidFunction) {
    program_.fnBcast =
        program_.functions.intern("MPI_Bcast", "MPI", trace::Paradigm::MPI);
  }
  Op op;
  op.kind = OpKind::Bcast;
  op.fn = program_.fnBcast;
  op.peer = root;
  op.bytes = bytes;
  rankOps(rank).push_back(op);
}

void ProgramBuilder::send(std::uint32_t rank, std::uint32_t peer,
                          std::uint32_t tag, std::uint64_t bytes) {
  PERFVAR_REQUIRE(peer < program_.ranks && peer != rank, "invalid send peer");
  if (program_.fnSend == trace::kInvalidFunction) {
    program_.fnSend =
        program_.functions.intern("MPI_Send", "MPI", trace::Paradigm::MPI);
  }
  Op op;
  op.kind = OpKind::Send;
  op.fn = program_.fnSend;
  op.peer = peer;
  op.tag = tag;
  op.bytes = bytes;
  rankOps(rank).push_back(op);
}

void ProgramBuilder::recv(std::uint32_t rank, std::uint32_t peer,
                          std::uint32_t tag) {
  PERFVAR_REQUIRE(peer < program_.ranks && peer != rank, "invalid recv peer");
  if (program_.fnRecv == trace::kInvalidFunction) {
    program_.fnRecv =
        program_.functions.intern("MPI_Recv", "MPI", trace::Paradigm::MPI);
  }
  Op op;
  op.kind = OpKind::Recv;
  op.fn = program_.fnRecv;
  op.peer = peer;
  op.tag = tag;
  rankOps(rank).push_back(op);
}

std::uint32_t ProgramBuilder::isend(std::uint32_t rank, std::uint32_t peer,
                                    std::uint32_t tag, std::uint64_t bytes) {
  PERFVAR_REQUIRE(peer < program_.ranks && peer != rank,
                  "invalid isend peer");
  if (program_.fnIsend == trace::kInvalidFunction) {
    program_.fnIsend =
        program_.functions.intern("MPI_Isend", "MPI", trace::Paradigm::MPI);
  }
  Op op;
  op.kind = OpKind::Isend;
  op.fn = program_.fnIsend;
  op.peer = peer;
  op.tag = tag;
  op.bytes = bytes;
  op.request = nextRequest_[rank]++;
  rankOps(rank).push_back(op);
  openRequests_[rank].push_back(op.request);
  return op.request;
}

std::uint32_t ProgramBuilder::irecv(std::uint32_t rank, std::uint32_t peer,
                                    std::uint32_t tag) {
  PERFVAR_REQUIRE(peer < program_.ranks && peer != rank,
                  "invalid irecv peer");
  if (program_.fnIrecv == trace::kInvalidFunction) {
    program_.fnIrecv =
        program_.functions.intern("MPI_Irecv", "MPI", trace::Paradigm::MPI);
  }
  Op op;
  op.kind = OpKind::Irecv;
  op.fn = program_.fnIrecv;
  op.peer = peer;
  op.tag = tag;
  op.request = nextRequest_[rank]++;
  rankOps(rank).push_back(op);
  openRequests_[rank].push_back(op.request);
  return op.request;
}

void ProgramBuilder::wait(std::uint32_t rank, std::uint32_t request) {
  auto& open = openRequests_[rank];
  const auto it = std::find(open.begin(), open.end(), request);
  PERFVAR_REQUIRE(it != open.end(),
                  "wait on unknown or already-waited request");
  if (program_.fnWait == trace::kInvalidFunction) {
    program_.fnWait =
        program_.functions.intern("MPI_Wait", "MPI", trace::Paradigm::MPI);
  }
  Op op;
  op.kind = OpKind::Wait;
  op.fn = program_.fnWait;
  op.request = request;
  rankOps(rank).push_back(op);
  open.erase(it);
}

Program ProgramBuilder::finish() {
  PERFVAR_REQUIRE(!finished_, "builder already finished");
  for (std::uint32_t r = 0; r < program_.ranks; ++r) {
    PERFVAR_REQUIRE(regionStacks_[r].empty(),
                    "rank " + std::to_string(r) + " has unclosed regions");
    PERFVAR_REQUIRE(openRequests_[r].empty(),
                    "rank " + std::to_string(r) +
                        " has requests without a wait");
  }
  finished_ = true;
  return std::move(program_);
}

}  // namespace perfvar::sim
