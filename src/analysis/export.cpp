#include "analysis/export.hpp"

#include <cstdint>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/format.hpp"
#include "util/json_writer.hpp"

namespace perfvar::analysis {

using util::JsonWriter;

namespace {

// The CSV writers build each table in one string, numbers as
// printf("%.12g") (fmt::appendGeneral), and write it at once.
constexpr int kCsvPrecision = 12;

void writeCsv(const std::string& text, std::ostream& out) {
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

}  // namespace

namespace detail {

void writeSosMatrixCsv(const SosResult& sos, std::ostream& out) {
  const std::size_t cols = sos.maxSegmentsPerProcess();
  std::string text = "process";
  for (std::size_t i = 0; i < cols; ++i) {
    text += ",iter";
    fmt::appendInteger(text, i);
  }
  text += '\n';
  for (std::size_t p = 0; p < sos.processCount(); ++p) {
    text += sos.trace().processName(static_cast<trace::ProcessId>(p));
    const auto& per = sos.process(static_cast<trace::ProcessId>(p));
    for (std::size_t i = 0; i < cols; ++i) {
      text += ',';
      if (i < per.size()) {
        fmt::appendGeneral(text, sos.trace().toSeconds(per[i].sosTime),
                           kCsvPrecision);
      }
    }
    text += '\n';
  }
  writeCsv(text, out);
}

void writeIterationStatsCsv(const VariationReport& report, std::ostream& out) {
  std::string text =
      "iteration,processes,minSos,meanSos,maxSos,stddevSos,meanDuration,"
      "imbalance,slowestProcess\n";
  for (const auto& it : report.iterations) {
    fmt::appendInteger(text, it.iteration);
    text += ',';
    fmt::appendInteger(text, it.processCount);
    for (const double v : {it.minSos, it.meanSos, it.maxSos, it.stddevSos,
                           it.meanDuration, it.imbalance}) {
      text += ',';
      fmt::appendGeneral(text, v, kCsvPrecision);
    }
    text += ',';
    fmt::appendInteger(text, it.slowestProcess);
    text += '\n';
  }
  writeCsv(text, out);
}

void writeHotspotsCsv(const trace::TraceView& tr,
                      const VariationReport& report, std::ostream& out) {
  std::string text =
      "process,processName,iteration,sosSeconds,durationSeconds,globalZ,"
      "iterationZ\n";
  for (const auto& h : report.hotspots) {
    fmt::appendInteger(text, h.process);
    text += ",\"";
    text += tr.processName(h.process);
    text += "\",";
    fmt::appendInteger(text, h.iteration);
    for (const double v :
         {h.sosSeconds, h.durationSeconds, h.globalZ, h.iterationZ}) {
      text += ',';
      fmt::appendGeneral(text, v, kCsvPrecision);
    }
    text += '\n';
  }
  writeCsv(text, out);
}

void writeAnalysisJson(const trace::TraceView& tr,
                       const DominantSelection& selection,
                       const SosResult& sos, const VariationReport& report,
                       std::ostream& out) {
  JsonWriter w(out);
  w.beginObject();

  w.key("trace");
  w.beginObject();
  w.key("processes");
  w.value(static_cast<std::uint64_t>(tr.processCount()));
  w.key("functions");
  w.value(static_cast<std::uint64_t>(tr.functions().size()));
  w.key("events");
  w.value(static_cast<std::uint64_t>(tr.eventCount()));
  w.key("durationSeconds");
  w.value(tr.durationSeconds());
  w.endObject();

  w.key("dominant");
  w.beginObject();
  w.key("function");
  w.value(sos.segmentFunction() == trace::kInvalidFunction
              ? std::string("(fixed time windows)")
              : tr.functions().name(sos.segmentFunction()));
  w.key("candidates");
  w.beginArray();
  for (const auto& c : selection.candidates) {
    w.beginObject();
    w.key("function");
    w.value(tr.functions().name(c.function));
    w.key("invocations");
    w.value(c.invocations);
    w.key("aggregatedInclusiveSeconds");
    w.value(tr.toSeconds(c.aggregatedInclusive));
    w.endObject();
  }
  w.endArray();
  w.endObject();

  w.key("processes");
  w.beginArray();
  for (const auto& ps : report.processes) {
    w.beginObject();
    w.key("process");
    w.value(static_cast<std::uint64_t>(ps.process));
    w.key("name");
    // Process ids index the trace the SOS analysis ran on — for degraded
    // inputs that is the filtered view, not `tr` (same object otherwise).
    w.value(sos.trace().processName(ps.process));
    w.key("segments");
    w.value(static_cast<std::uint64_t>(ps.segments));
    w.key("totalSos");
    w.value(ps.totalSos);
    w.key("meanSos");
    w.value(ps.meanSos);
    w.key("maxSos");
    w.value(ps.maxSos);
    w.key("totalZ");
    w.value(ps.totalZ);
    w.key("culprit");
    bool isCulprit = false;
    for (const auto c : report.culpritProcesses) {
      isCulprit |= c == ps.process;
    }
    w.value(isCulprit);
    w.endObject();
  }
  w.endArray();

  w.key("iterations");
  w.beginArray();
  for (const auto& it : report.iterations) {
    w.beginObject();
    w.key("iteration");
    w.value(static_cast<std::uint64_t>(it.iteration));
    w.key("meanSos");
    w.value(it.meanSos);
    w.key("maxSos");
    w.value(it.maxSos);
    w.key("meanDuration");
    w.value(it.meanDuration);
    w.key("imbalance");
    w.value(it.imbalance);
    w.key("slowestProcess");
    w.value(static_cast<std::uint64_t>(it.slowestProcess));
    w.endObject();
  }
  w.endArray();

  w.key("hotspots");
  w.beginArray();
  for (const auto& h : report.hotspots) {
    w.beginObject();
    w.key("process");
    w.value(static_cast<std::uint64_t>(h.process));
    w.key("iteration");
    w.value(static_cast<std::uint64_t>(h.iteration));
    w.key("sosSeconds");
    w.value(h.sosSeconds);
    w.key("globalZ");
    w.value(h.globalZ);
    w.key("iterationZ");
    w.value(h.iterationZ);
    w.endObject();
  }
  w.endArray();

  w.key("trend");
  w.beginObject();
  w.key("durationSlopePerIteration");
  w.value(report.durationTrend.slope);
  w.key("durationR2");
  w.value(report.durationTrend.r2);
  w.key("sosSlopePerIteration");
  w.value(report.sosTrend.slope);
  w.key("sosR2");
  w.value(report.sosTrend.r2);
  w.endObject();

  // Emitted only for degraded (Salvage-loaded) inputs, so clean-trace
  // output stays byte-for-byte unchanged.
  if (!tr.quarantined().empty()) {
    w.key("degradation");
    w.beginObject();
    w.key("analyzedProcesses");
    w.value(static_cast<std::uint64_t>(sos.trace().processCount()));
    w.key("quarantined");
    w.beginArray();
    for (const trace::QuarantinedRank& q : tr.quarantined()) {
      w.beginObject();
      w.key("process");
      w.value(static_cast<std::uint64_t>(q.process));
      w.key("name");
      w.value(q.name);
      w.key("error");
      w.value(std::string(errorCodeName(q.error)));
      w.key("bytesSalvaged");
      w.value(q.bytesSalvaged);
      w.key("eventsSalvaged");
      w.value(q.eventsSalvaged);
      w.key("eventsDropped");
      w.value(q.eventsDropped);
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }

  w.endObject();
  out << '\n';
}

}  // namespace detail

void exportReport(const trace::TraceView& tr,
                  const DominantSelection& selection,
                  const SosResult& sos, const VariationReport& report,
                  ExportFormat format, std::ostream& out) {
  switch (format) {
    case ExportFormat::Text:
      out << formatAnalysis(tr, selection, sos, report);
      return;
    case ExportFormat::Json:
      detail::writeAnalysisJson(tr, selection, sos, report, out);
      return;
    case ExportFormat::Csv:
      detail::writeSosMatrixCsv(sos, out);
      return;
    case ExportFormat::CsvIterations:
      detail::writeIterationStatsCsv(report, out);
      return;
    case ExportFormat::CsvHotspots:
      // Hotspot process ids index the trace the SOS ran on (the filtered
      // view for degraded inputs; `tr` itself otherwise).
      detail::writeHotspotsCsv(sos.trace(), report, out);
      return;
  }
  PERFVAR_REQUIRE(false, "unknown ExportFormat");
}

void exportReport(const trace::TraceView& tr, const AnalysisResult& result,
                  ExportFormat format, std::ostream& out) {
  exportReport(tr, result.selection, *result.sos, result.variation, format,
               out);
}

std::string exportReportString(const trace::TraceView& tr,
                               const AnalysisResult& result,
                               ExportFormat format) {
  std::ostringstream os;
  exportReport(tr, result, format, os);
  return os.str();
}

}  // namespace perfvar::analysis
