#ifndef PERFVAR_TRACE_TEXT_IO_HPP
#define PERFVAR_TRACE_TEXT_IO_HPP

/// \file text_io.hpp
/// Line-oriented human-readable trace dump ("PVTX"), the output of
/// `trace_tool dump`.
///
/// One record per line, definitions before events; names are
/// double-quoted with backslash escapes. perfvar writes PVTX but does not
/// read it back (PVTF is the only input format):
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

/// writeText() into a string.
std::string toText(const Trace& trace);

}  // namespace perfvar::trace

#endif  // PERFVAR_TRACE_TEXT_IO_HPP
