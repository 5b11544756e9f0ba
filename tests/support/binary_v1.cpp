#include "support/binary_v1.hpp"

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>

#include "trace/binary_io.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace perfvar::testing {

namespace {

/// The v1 payload: everything between the prologue and the checksum
/// trailer, buffered so the trailer can hash it in one pass.
class Payload {
public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }

  void varint(std::uint64_t v) {
    do {
      unsigned char b = static_cast<unsigned char>(v & 0x7F);
      v >>= 7;
      if (v != 0) {
        b |= 0x80;
      }
      u8(b);
    } while (v != 0);
  }

  void f64(double v) { putLE(std::bit_cast<std::uint64_t>(v), 8); }

  void string(const std::string& s) {
    varint(s.size());
    bytes_ += s;
  }

  /// Little-endian fixed-width integer of `width` bytes.
  void putLE(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      u8(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
    }
  }

  const std::string& bytes() const { return bytes_; }

private:
  std::string bytes_;
};

}  // namespace

void writeBinaryV1(const trace::Trace& trace, std::ostream& out) {
  using trace::EventKind;
  Payload w;
  w.varint(trace.resolution);

  w.varint(trace.functions.size());
  for (const trace::FunctionDef& f : trace.functions.all()) {
    w.string(f.name);
    w.string(f.group);
    w.u8(static_cast<std::uint8_t>(f.paradigm));
  }

  w.varint(trace.metrics.size());
  for (const trace::MetricDef& m : trace.metrics.all()) {
    w.string(m.name);
    w.string(m.unit);
    w.u8(static_cast<std::uint8_t>(m.mode));
  }

  w.varint(trace.processes.size());
  for (const trace::ProcessTrace& p : trace.processes) {
    w.string(p.name);
    w.varint(p.events.size());
    trace::Timestamp last = 0;
    for (const trace::Event& e : p.events) {
      w.u8(static_cast<std::uint8_t>(e.kind));
      w.varint(e.time - last);
      last = e.time;
      switch (e.kind) {
        case EventKind::Enter:
        case EventKind::Leave:
          w.varint(e.ref);
          break;
        case EventKind::MpiSend:
        case EventKind::MpiRecv:
          w.varint(e.ref);
          w.varint(e.aux);
          w.varint(e.size);
          break;
        case EventKind::Metric:
          w.varint(e.ref);
          w.f64(e.value);
          break;
      }
    }
  }

  // Prologue (magic, version) and trailer sit outside the checksum.
  Payload prologue;
  for (const char c : {'P', 'V', 'T', 'F'}) {
    prologue.u8(static_cast<std::uint8_t>(c));
  }
  prologue.putLE(trace::kBinaryFormatV1, 4);
  Payload trailer;
  trailer.putLE(
      util::Hasher{}.bytes(w.bytes().data(), w.bytes().size()).digest(), 8);
  out << prologue.bytes() << w.bytes() << trailer.bytes();
  PERFVAR_REQUIRE(out.good(), "binary trace: write failed");
}

}  // namespace perfvar::testing
