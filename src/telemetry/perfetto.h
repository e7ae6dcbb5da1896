// Chrome / Perfetto trace-event JSON export.
//
// Serializes one Telemetry handle as a JSON object in the trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
// that chrome://tracing and https://ui.perfetto.dev load directly:
//
//   * profiler slices  -> nested "X" (complete) duration events on the
//                         "profiler" process, one track per nesting level
//                         collapsed automatically by the viewer;
//   * tracer events    -> "i" (instant) events on the "simulation" process,
//                         one thread track per telemetry layer, args carrying
//                         the event's numeric/string fields;
//   * audit records    -> "i" events on a dedicated detector-decisions track,
//                         args carrying value/bounds/margin/verdict.
//
// Time bases. Tick-domain data (tracer events, audits) is mapped through
// kDefaultTpcmSeconds so one tick renders as its virtual duration; profiler
// slices are emitted in their own clock domain (wall nanoseconds, or
// deterministic units in tick-domain mode) on a separate process so the two
// axes never visually mix. Both are valid trace-event streams either way —
// the format only requires microsecond numbers, not a shared epoch.
//
// The export is read-only (unlike Telemetry::WriteJsonl it drains nothing),
// so it can run mid-experiment or after WriteJsonl in any order.
#pragma once

#include <iosfwd>
#include <string>

#include "common/types.h"

namespace sds::telemetry {

class Telemetry;

// Writes the full trace-event JSON object ({"traceEvents":[...],...}).
void WritePerfettoTrace(const Telemetry& telemetry, std::ostream& os);

// Convenience wrapper; returns false when the file cannot be opened.
bool WritePerfettoTraceFile(const Telemetry& telemetry,
                            const std::string& path);

}  // namespace sds::telemetry
