#include "trace/text_io.hpp"

#include <ostream>
#include <sstream>

namespace perfvar::trace {

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  out += '"';
  return out;
}

const char* metricModeName(MetricMode m) {
  return m == MetricMode::Accumulated ? "ACCUMULATED" : "ABSOLUTE";
}

}  // namespace

void writeText(const Trace& trace, std::ostream& out) {
  out << "PVTX 1\n";
  out << "resolution " << trace.resolution << '\n';
  for (std::size_t i = 0; i < trace.functions.size(); ++i) {
    const FunctionDef& f = trace.functions.at(static_cast<FunctionId>(i));
    out << "function " << i << ' ' << quote(f.name) << ' ' << quote(f.group)
        << ' ' << paradigmName(f.paradigm) << '\n';
  }
  for (std::size_t i = 0; i < trace.metrics.size(); ++i) {
    const MetricDef& m = trace.metrics.at(static_cast<MetricId>(i));
    out << "metric " << i << ' ' << quote(m.name) << ' ' << quote(m.unit)
        << ' ' << metricModeName(m.mode) << '\n';
  }
  for (std::size_t p = 0; p < trace.processes.size(); ++p) {
    const ProcessTrace& proc = trace.processes[p];
    out << "process " << p << ' ' << quote(proc.name) << '\n';
    for (const Event& e : proc.events) {
      switch (e.kind) {
        case EventKind::Enter:
          out << "E " << e.time << ' ' << e.ref << '\n';
          break;
        case EventKind::Leave:
          out << "L " << e.time << ' ' << e.ref << '\n';
          break;
        case EventKind::MpiSend:
          out << "S " << e.time << ' ' << e.ref << ' ' << e.aux << ' '
              << e.size << '\n';
          break;
        case EventKind::MpiRecv:
          out << "R " << e.time << ' ' << e.ref << ' ' << e.aux << ' '
              << e.size << '\n';
          break;
        case EventKind::Metric: {
          std::ostringstream val;
          val.precision(17);
          val << e.value;
          out << "M " << e.time << ' ' << e.ref << ' ' << val.str() << '\n';
          break;
        }
      }
    }
  }
}

std::string toText(const Trace& trace) {
  std::ostringstream os;
  writeText(trace, os);
  return os.str();
}

}  // namespace perfvar::trace
