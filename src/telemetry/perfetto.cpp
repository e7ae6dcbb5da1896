#include "telemetry/perfetto.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/json.h"
#include "telemetry/telemetry.h"

namespace sds::telemetry {

namespace {

// Process ids: tick-domain data and profiler slices live on separate
// processes so the viewer never renders two time bases on one axis.
constexpr int kSimPid = 1;
constexpr int kProfilerPid = 2;
// Thread ids on kSimPid: 1 + layer index for tracer events, then one extra
// track for detector audit records.
constexpr int kAuditTid = static_cast<int>(kLayerCount) + 1;

void WriteJsonNumber(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";  // JSON has no inf/nan literals
    return;
  }
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    os << static_cast<long long>(v);
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

// Emits the common prefix of one trace event and leaves the object open so
// callers can append args. `ts` is in microseconds per the format.
void BeginEvent(std::ostream& os, bool& first, const char* name,
                const char* phase, double ts_us, int pid, int tid,
                const char* category) {
  if (!first) os << ",\n";
  first = false;
  os << "{\"name\":\"" << JsonEscape(name) << "\",\"ph\":\"" << phase
     << "\",\"ts\":";
  WriteJsonNumber(os, ts_us);
  os << ",\"pid\":" << pid << ",\"tid\":" << tid << ",\"cat\":\"" << category
     << '"';
}

void WriteMetadata(std::ostream& os, bool& first, const char* name, int pid,
                   int tid, const char* value) {
  if (!first) os << ",\n";
  first = false;
  os << "{\"name\":\"" << name << "\",\"ph\":\"M\",\"pid\":" << pid
     << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << JsonEscape(value)
     << "\"}}";
}

}  // namespace

void WritePerfettoTrace(const Telemetry& telemetry, std::ostream& os) {
  const double tick_us = kDefaultTpcmSeconds * 1e6;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;

  // Track naming metadata.
  WriteMetadata(os, first, "process_name", kSimPid, 0, "simulation (ticks)");
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    WriteMetadata(os, first, "thread_name", kSimPid, static_cast<int>(i) + 1,
                  LayerName(static_cast<Layer>(i)));
  }
  WriteMetadata(os, first, "thread_name", kSimPid, kAuditTid,
                "detector decisions");
  const SpanProfiler& profiler = telemetry.profiler();
  const bool slices = profiler.slices_retained() > 0;
  if (slices) {
    WriteMetadata(os, first, "process_name", kProfilerPid, 0,
                  profiler.clock() == ProfileClock::kWall
                      ? "profiler (wall clock)"
                      : "profiler (deterministic tick clock)");
    WriteMetadata(os, first, "thread_name", kProfilerPid, 1, "spans");
  }

  const EventTracer& tracer = telemetry.tracer();
  for (std::size_t i = 0; i < tracer.retained(); ++i) {
    const TraceEvent& e = tracer.event(i);
    BeginEvent(os, first, e.name != nullptr ? e.name : "?", "i",
               static_cast<double>(e.tick) * tick_us, kSimPid,
               static_cast<int>(e.layer) + 1, LayerName(e.layer));
    os << ",\"s\":\"t\",\"args\":{\"tick\":" << e.tick;
    if (e.owner >= 0) os << ",\"owner\":" << e.owner;
    for (const auto& f : e.nums) {
      if (f.key == nullptr) continue;
      os << ",\"" << JsonEscape(f.key) << "\":";
      WriteJsonNumber(os, f.value);
    }
    for (const auto& f : e.strs) {
      if (f.key == nullptr) continue;
      os << ",\"" << JsonEscape(f.key) << "\":\""
         << JsonEscape(f.value != nullptr ? f.value : "") << '"';
    }
    os << "}}";
  }

  for (const AuditRecord& r : telemetry.audit().records()) {
    BeginEvent(os, first, r.check, "i",
               static_cast<double>(r.tick) * tick_us, kSimPid, kAuditTid,
               "audit");
    os << ",\"s\":\"t\",\"args\":{\"tick\":" << r.tick << ",\"detector\":\""
       << JsonEscape(r.detector) << "\",\"channel\":\""
       << JsonEscape(r.channel) << "\",\"value\":";
    WriteJsonNumber(os, r.value);
    os << ",\"lower\":";
    WriteJsonNumber(os, r.lower);
    os << ",\"upper\":";
    WriteJsonNumber(os, r.upper);
    os << ",\"margin\":";
    WriteJsonNumber(os, r.margin);
    os << ",\"violation\":" << (r.violation ? "true" : "false")
       << ",\"consecutive\":" << r.consecutive
       << ",\"alarm\":" << (r.alarm ? "true" : "false") << "}}";
  }

  if (slices) {
    // Profiler timestamps are nanoseconds (or deterministic units); scale to
    // the format's microseconds and rebase to the earliest slice so the
    // track starts near zero. Complete ("X") events nest by timestamp
    // containment, which the enter/exit discipline guarantees.
    std::uint64_t base = profiler.slice(0).start;
    for (std::size_t i = 1; i < profiler.slices_retained(); ++i) {
      base = std::min(base, profiler.slice(i).start);
    }
    for (std::size_t i = 0; i < profiler.slices_retained(); ++i) {
      const SpanSlice& s = profiler.slice(i);
      BeginEvent(os, first, profiler.span_name(s.span), "X",
                 static_cast<double>(s.start - base) / 1e3, kProfilerPid, 1,
                 "span");
      os << ",\"dur\":";
      WriteJsonNumber(os, static_cast<double>(s.duration) / 1e3);
      os << ",\"args\":{\"depth\":" << s.depth << "}}";
    }
  }

  os << "\n]}\n";
}

bool WritePerfettoTraceFile(const Telemetry& telemetry,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  WritePerfettoTrace(telemetry, out);
  return static_cast<bool>(out);
}

}  // namespace sds::telemetry
