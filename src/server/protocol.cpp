#include "server/protocol.hpp"

#include <cstring>
#include <sstream>

#include "util/format.hpp"

namespace perfvar::server {

namespace {

void putU32LE(std::string& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::uint32_t getU32LE(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

bool isFinalResponse(FrameType type) {
  switch (type) {
    case FrameType::Ok:
    case FrameType::Data:
    case FrameType::Error:
    case FrameType::Evicted:
    case FrameType::Bye:
      return true;
    default:
      return false;
  }
}

const char* frameTypeName(FrameType type) {
  switch (type) {
    case FrameType::Hello: return "hello";
    case FrameType::Load: return "load";
    case FrameType::Open: return "open";
    case FrameType::Append: return "append";
    case FrameType::Analyze: return "analyze";
    case FrameType::Export: return "export";
    case FrameType::Lint: return "lint";
    case FrameType::Stats: return "stats";
    case FrameType::Evict: return "evict";
    case FrameType::Subscribe: return "subscribe";
    case FrameType::Close: return "close";
    case FrameType::Shutdown: return "shutdown";
    case FrameType::HelloOk: return "hello-ok";
    case FrameType::Ok: return "ok";
    case FrameType::Data: return "data";
    case FrameType::Error: return "error";
    case FrameType::Evicted: return "evicted";
    case FrameType::Alert: return "alert";
    case FrameType::Bye: return "bye";
  }
  return "unknown";
}

std::string encodeHello() {
  std::string payload(kProtocolMagic, sizeof kProtocolMagic);
  putU32LE(payload, kProtocolVersion);
  return payload;
}

void checkHello(std::string_view payload) {
  PERFVAR_REQUIRE_E(
      payload.size() >= sizeof kProtocolMagic &&
          std::memcmp(payload.data(), kProtocolMagic,
                      sizeof kProtocolMagic) == 0,
      "hello: bad protocol magic (expected \"PVTS\")",
      ErrorContext::at(ErrorCode::BadMagic, 0));
  PERFVAR_REQUIRE_E(payload.size() == sizeof kProtocolMagic + 4,
                    "hello: truncated payload",
                    ErrorContext::at(ErrorCode::TruncatedInput,
                                     payload.size()));
  const std::uint32_t version = getU32LE(
      reinterpret_cast<const unsigned char*>(payload.data()) +
      sizeof kProtocolMagic);
  PERFVAR_REQUIRE_E(version == kProtocolVersion,
                    "hello: unsupported protocol version " +
                        std::to_string(version) + " (this server speaks " +
                        std::to_string(kProtocolVersion) + ")",
                    ErrorContext::at(ErrorCode::UnsupportedVersion, 4));
}

std::string encodeHelloOk() {
  std::string payload;
  putU32LE(payload, kProtocolVersion);
  return payload;
}

std::string encodeErrorPayload(ErrorCode code, std::string_view message) {
  std::string payload;
  payload.push_back(static_cast<char>(code));
  payload.append(message);
  return payload;
}

ProtocolError decodeErrorPayload(std::string_view payload) {
  ProtocolError e;
  if (payload.empty()) {
    e.message = "(empty error payload)";
    return e;
  }
  const auto raw = static_cast<std::uint8_t>(payload[0]);
  e.code = raw <= static_cast<std::uint8_t>(ErrorCode::ChunkOutOfWindow)
               ? static_cast<ErrorCode>(raw)
               : ErrorCode::Generic;
  e.message.assign(payload.begin() + 1, payload.end());
  return e;
}

std::string encodeAppendPayload(std::string_view name,
                                std::string_view image) {
  std::string payload;
  payload.reserve(4 + name.size() + image.size());
  putU32LE(payload, static_cast<std::uint32_t>(name.size()));
  payload.append(name);
  payload.append(image);
  return payload;
}

AppendPayload decodeAppendPayload(std::string_view payload) {
  PERFVAR_REQUIRE_E(payload.size() >= 4,
                    "append: truncated payload (no name length)",
                    ErrorContext::at(ErrorCode::MalformedEvent, 0));
  const std::uint32_t nameLen = getU32LE(
      reinterpret_cast<const unsigned char*>(payload.data()));
  PERFVAR_REQUIRE_E(4 + static_cast<std::size_t>(nameLen) <= payload.size(),
                    "append: name length overruns the payload",
                    ErrorContext::at(ErrorCode::MalformedEvent, 0));
  AppendPayload out;
  out.name.assign(payload.data() + 4, nameLen);
  out.image = payload.substr(4 + nameLen);
  return out;
}

std::vector<std::string> splitTokens(std::string_view text) {
  std::istringstream split{std::string(text)};
  std::vector<std::string> tokens;
  for (std::string t; split >> t;) {
    tokens.push_back(t);
  }
  return tokens;
}

analysis::PipelineOptions parsePipelineOptions(
    const std::vector<std::string>& tokens, std::size_t first) {
  // Plain messages (no source location): trace_tool prints them as-is.
  const auto malformed = [](const std::string& message) {
    return Error(message, ErrorContext::at(ErrorCode::MalformedEvent));
  };
  analysis::PipelineOptions opts;
  for (std::size_t i = first; i < tokens.size(); i += 2) {
    if (i + 1 >= tokens.size()) {
      throw malformed("query option '" + tokens[i] + "' needs a value");
    }
    const std::string& key = tokens[i];
    const std::string& value = tokens[i + 1];
    if (key == "candidate") {
      if (!fmt::parseSize(value, opts.candidateIndex)) {
        throw malformed("candidate expects a non-negative integer, got '" +
                        value + "'");
      }
    } else if (key == "threshold") {
      if (!fmt::parseDouble(value, opts.variation.outlierThreshold)) {
        throw malformed("threshold expects a finite number, got '" + value +
                        "'");
      }
    } else if (key == "max-hotspots") {
      if (!fmt::parseSize(value, opts.variation.maxHotspots)) {
        throw malformed("max-hotspots expects a non-negative integer, got '" +
                        value + "'");
      }
    } else {
      throw malformed("unknown query option '" + key + "'");
    }
  }
  return opts;
}

analysis::ExportFormat parseExportFormat(const std::string& name) {
  if (name == "text") {
    return analysis::ExportFormat::Text;
  }
  if (name == "json") {
    return analysis::ExportFormat::Json;
  }
  if (name == "csv") {
    return analysis::ExportFormat::Csv;
  }
  if (name == "csv-iterations") {
    return analysis::ExportFormat::CsvIterations;
  }
  if (name == "csv-hotspots") {
    return analysis::ExportFormat::CsvHotspots;
  }
  throw Error("unknown export format '" + name +
                  "' (expected text | json | csv | csv-iterations | "
                  "csv-hotspots)",
              ErrorContext::at(ErrorCode::MalformedEvent));
}

}  // namespace perfvar::server
