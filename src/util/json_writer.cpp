#include "util/json_writer.hpp"

#include <cmath>

namespace perfvar::util {

void JsonWriter::appendString(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  buf_ += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        buf_ += "\\\"";
        break;
      case '\\':
        buf_ += "\\\\";
        break;
      case '\n':
        buf_ += "\\n";
        break;
      case '\t':
        buf_ += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          buf_ += "\\u00";
          buf_ += kHex[static_cast<unsigned char>(c) >> 4];
          buf_ += kHex[static_cast<unsigned char>(c) & 0xf];
        } else {
          buf_ += c;
        }
    }
  }
  buf_ += '"';
}

void JsonWriter::value(double v) {
  separator();
  if (std::isfinite(v)) {
    fmt::appendGeneral(buf_, v, 17);
  } else {
    buf_ += "null";
  }
  valueDone();
}

}  // namespace perfvar::util
