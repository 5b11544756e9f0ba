#ifndef PERFVAR_TRACE_EVENT_HPP
#define PERFVAR_TRACE_EVENT_HPP

/// \file event.hpp
/// The per-process event record.
///
/// A compact fixed-size record is used instead of std::variant so that
/// event streams are cache-friendly and trivially serializable. The fields
/// `ref`, `aux`, `size` and `value` are interpreted per EventKind as
/// documented below.

#include <cstdint>

#include "trace/types.hpp"

namespace perfvar::trace {

/// Kind of one trace event.
enum class EventKind : std::uint8_t {
  Enter,    ///< function entry:   ref = FunctionId
  Leave,    ///< function exit:    ref = FunctionId (must match Enter)
  MpiSend,  ///< message send:     ref = receiver process, aux = tag, size = bytes
  MpiRecv,  ///< message receive:  ref = sender process,   aux = tag, size = bytes
  Metric,   ///< metric sample:    ref = MetricId, value = sample value
};

/// One timestamped event of a process event stream.
struct Event {
  Timestamp time = 0;
  EventKind kind = EventKind::Enter;
  std::uint32_t ref = 0;
  std::uint32_t aux = 0;
  std::uint64_t size = 0;
  double value = 0.0;

  static Event enter(Timestamp t, FunctionId f) {
    return Event{t, EventKind::Enter, f, 0, 0, 0.0};
  }
  static Event leave(Timestamp t, FunctionId f) {
    return Event{t, EventKind::Leave, f, 0, 0, 0.0};
  }
  static Event mpiSend(Timestamp t, ProcessId receiver, std::uint32_t tag,
                       std::uint64_t bytes) {
    return Event{t, EventKind::MpiSend, receiver, tag, bytes, 0.0};
  }
  static Event mpiRecv(Timestamp t, ProcessId sender, std::uint32_t tag,
                       std::uint64_t bytes) {
    return Event{t, EventKind::MpiRecv, sender, tag, bytes, 0.0};
  }
  static Event metric(Timestamp t, MetricId m, double value) {
    return Event{t, EventKind::Metric, m, 0, 0, value};
  }

  bool operator==(const Event& other) const = default;
};

}  // namespace perfvar::trace

#endif  // PERFVAR_TRACE_EVENT_HPP
