#ifndef PERFVAR_UTIL_JSON_WRITER_HPP
#define PERFVAR_UTIL_JSON_WRITER_HPP

/// \file json_writer.hpp
/// Minimal structured JSON writer shared by every JSON export path
/// (analysis reports, lint reports). No dependencies, deterministic
/// byte-for-byte output: numbers print with 17 significant digits so
/// doubles round-trip (printf("%.17g") via std::to_chars), non-finite
/// values render as null. The document is built in one string and
/// written to the stream when its top-level value is complete (or when
/// the writer is destroyed), so a writer and direct writes to its stream
/// must not interleave inside one document.

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "util/format.hpp"

namespace perfvar::util {

/// Streaming JSON writer. The caller is responsible for well-formedness
/// (matching begin/end calls, keys only inside objects); the writer only
/// handles separators and escaping.
class JsonWriter {
public:
  /// Leaves the stream's formatting state untouched: every number is
  /// formatted into the document before it is written.
  explicit JsonWriter(std::ostream& out) : out_(out) {}
  ~JsonWriter() { flush(); }

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void beginObject() { open('{'); }
  void endObject() { close('}'); }
  void beginArray() { open('['); }
  void endArray() { close(']'); }
  void key(std::string_view name) {
    separator();
    appendString(name);
    buf_ += ':';
    fresh_ = true;
  }
  void value(double v);
  void value(std::uint64_t v) {
    separator();
    fmt::appendInteger(buf_, v);
    valueDone();
  }
  void value(std::int64_t v) {
    separator();
    fmt::appendInteger(buf_, v);
    valueDone();
  }
  void value(const std::string& s) {
    separator();
    appendString(s);
    valueDone();
  }
  void value(bool b) {
    separator();
    buf_ += b ? "true" : "false";
    valueDone();
  }

private:
  void separator() {
    if (!fresh_) {
      buf_ += ',';
    }
    fresh_ = true;
  }
  void open(char bracket) {
    separator();
    buf_ += bracket;
    ++depth_;
    fresh_ = true;
  }
  void close(char bracket) {
    buf_ += bracket;
    --depth_;
    valueDone();
  }
  /// A value ended: the next one needs a separator, and a complete
  /// top-level value goes to the stream.
  void valueDone() {
    fresh_ = false;
    if (depth_ == 0) {
      flush();
    }
  }
  void flush() {
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }
  /// A quoted, JSON-escaped string (quotes, backslashes, control
  /// characters).
  void appendString(std::string_view s);

  std::ostream& out_;
  std::string buf_;
  std::size_t depth_ = 0;
  bool fresh_ = true;
};

}  // namespace perfvar::util

#endif  // PERFVAR_UTIL_JSON_WRITER_HPP
