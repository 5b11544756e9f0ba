#include "trace/text_io.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

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

/// Minimal tokenizer for one PVTX line: whitespace-separated words plus
/// double-quoted strings with backslash escapes.
class LineParser {
public:
  LineParser(const std::string& line, std::size_t lineNo)
      : line_(line), lineNo_(lineNo) {}

  [[noreturn]] void fail(const std::string& msg) const {
    throw Error("PVTX line " + std::to_string(lineNo_) + ": " + msg);
  }

  bool atEnd() {
    skipSpace();
    return pos_ >= line_.size();
  }

  std::string word() {
    skipSpace();
    if (pos_ >= line_.size()) {
      fail("expected token");
    }
    const std::size_t start = pos_;
    while (pos_ < line_.size() && !std::isspace(
               static_cast<unsigned char>(line_[pos_]))) {
      ++pos_;
    }
    return line_.substr(start, pos_ - start);
  }

  std::string quoted() {
    skipSpace();
    if (pos_ >= line_.size() || line_[pos_] != '"') {
      fail("expected quoted string");
    }
    ++pos_;
    std::string out;
    while (pos_ < line_.size() && line_[pos_] != '"') {
      if (line_[pos_] == '\\' && pos_ + 1 < line_.size()) {
        ++pos_;
      }
      out += line_[pos_++];
    }
    if (pos_ >= line_.size()) {
      fail("unterminated quoted string");
    }
    ++pos_;  // closing quote
    return out;
  }

  std::uint64_t u64() {
    const std::string w = word();
    try {
      std::size_t used = 0;
      const std::uint64_t v = std::stoull(w, &used);
      if (used != w.size()) {
        fail("invalid integer '" + w + "'");
      }
      return v;
    } catch (const std::logic_error&) {
      fail("invalid integer '" + w + "'");
    }
  }

  double f64() {
    const std::string w = word();
    try {
      std::size_t used = 0;
      const double v = std::stod(w, &used);
      if (used != w.size()) {
        fail("invalid number '" + w + "'");
      }
      return v;
    } catch (const std::logic_error&) {
      fail("invalid number '" + w + "'");
    }
  }

private:
  void skipSpace() {
    while (pos_ < line_.size() &&
           std::isspace(static_cast<unsigned char>(line_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& line_;
  std::size_t lineNo_;
  std::size_t pos_ = 0;
};

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

Trace readText(std::istream& in) {
  Trace trace;
  std::string line;
  std::size_t lineNo = 0;
  ProcessTrace* current = nullptr;
  bool seenResolution = false;

  const auto nextLine = [&]() -> bool {
    while (std::getline(in, line)) {
      ++lineNo;
      // Skip blank lines and comments.
      std::size_t i = 0;
      while (i < line.size() &&
             std::isspace(static_cast<unsigned char>(line[i]))) {
        ++i;
      }
      if (i >= line.size() || line[i] == '#') {
        continue;
      }
      return true;
    }
    return false;
  };

  PERFVAR_REQUIRE(nextLine(), "PVTX: empty input");
  {
    LineParser p(line, lineNo);
    const std::string magic = p.word();
    if (magic != "PVTX") {
      p.fail("bad magic '" + magic + "'");
    }
    const std::uint64_t version = p.u64();
    if (version != 1) {
      p.fail("unsupported version " + std::to_string(version));
    }
  }

  while (nextLine()) {
    LineParser p(line, lineNo);
    const std::string tag = p.word();
    if (tag == "resolution") {
      trace.resolution = p.u64();
      if (trace.resolution == 0) {
        p.fail("zero resolution");
      }
      seenResolution = true;
    } else if (tag == "function") {
      const std::uint64_t id = p.u64();
      const std::string name = p.quoted();
      const std::string group = p.quoted();
      const std::string paradigm = p.word();
      const FunctionId actual =
          trace.functions.intern(name, group, paradigmFromName(paradigm));
      if (actual != id) {
        p.fail("function id mismatch");
      }
    } else if (tag == "metric") {
      const std::uint64_t id = p.u64();
      const std::string name = p.quoted();
      const std::string unit = p.quoted();
      const std::string modeName = p.word();
      MetricMode mode;
      if (modeName == "ACCUMULATED") {
        mode = MetricMode::Accumulated;
      } else if (modeName == "ABSOLUTE") {
        mode = MetricMode::Absolute;
      } else {
        p.fail("unknown metric mode '" + modeName + "'");
      }
      const MetricId actual = trace.metrics.intern(name, unit, mode);
      if (actual != id) {
        p.fail("metric id mismatch");
      }
    } else if (tag == "process") {
      if (!seenResolution) {
        // Without an explicit resolution, timestamps would silently be
        // interpreted at the default rate - refuse instead.
        p.fail("process record before a resolution record");
      }
      const std::uint64_t id = p.u64();
      if (id != trace.processes.size()) {
        p.fail("process ids must be consecutive");
      }
      trace.processes.emplace_back();
      current = &trace.processes.back();
      current->name = p.quoted();
    } else if (tag == "E" || tag == "L" || tag == "S" || tag == "R" ||
               tag == "M") {
      if (current == nullptr) {
        p.fail("event before first process");
      }
      Event e;
      e.time = p.u64();
      if (tag == "E" || tag == "L") {
        e.kind = tag == "E" ? EventKind::Enter : EventKind::Leave;
        e.ref = static_cast<std::uint32_t>(p.u64());
      } else if (tag == "S" || tag == "R") {
        e.kind = tag == "S" ? EventKind::MpiSend : EventKind::MpiRecv;
        e.ref = static_cast<std::uint32_t>(p.u64());
        e.aux = static_cast<std::uint32_t>(p.u64());
        e.size = p.u64();
      } else {
        e.kind = EventKind::Metric;
        e.ref = static_cast<std::uint32_t>(p.u64());
        e.value = p.f64();
      }
      current->events.push_back(e);
    } else {
      p.fail("unknown record '" + tag + "'");
    }
    if (!p.atEnd()) {
      p.fail("trailing tokens");
    }
  }
  PERFVAR_REQUIRE(!trace.processes.empty(), "PVTX: no processes");
  return trace;
}

std::string toText(const Trace& trace) {
  std::ostringstream os;
  writeText(trace, os);
  return os.str();
}

Trace fromText(const std::string& text) {
  std::istringstream is(text);
  return readText(is);
}

}  // namespace perfvar::trace
