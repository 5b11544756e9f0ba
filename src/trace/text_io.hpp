#ifndef PERFVAR_TRACE_TEXT_IO_HPP
#define PERFVAR_TRACE_TEXT_IO_HPP

/// \file text_io.hpp
/// Line-oriented human-readable trace format ("PVTX") and dumping helpers.
///
/// The text format round-trips losslessly with the in-memory model and is
/// meant for debugging, diffing and small golden files. The resolution
/// record is mandatory and must precede the first process record (a
/// missing resolution would silently change timestamp semantics):
///
///   PVTX 1
///   resolution 1000000000
///   function <id> "<name>" "<group>" <PARADIGM>
///   metric <id> "<name>" "<unit>" <MODE>
///   process <id> "<name>"
///   E <time> <functionId>
///   L <time> <functionId>
///   S <time> <peer> <tag> <bytes>
///   R <time> <peer> <tag> <bytes>
///   M <time> <metricId> <value>

#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace perfvar::trace {

/// Write the PVTX representation of a trace.
void writeText(const Trace& trace, std::ostream& out);

/// Parse a PVTX stream; throws perfvar::Error with a line number on
/// malformed input.
Trace readText(std::istream& in);

/// Convenience string/file wrappers.
std::string toText(const Trace& trace);
Trace fromText(const std::string& text);

}  // namespace perfvar::trace

#endif  // PERFVAR_TRACE_TEXT_IO_HPP
