// The Telemetry handle: one metrics registry + one event tracer + one
// detector audit log, owned together and threaded through the stack as a
// single nullable pointer.
//
// Wiring: sim::MachineConfig carries a `Telemetry*`; everything downstream
// (Hypervisor, PcmSampler, detectors, eval::Experiment) reaches the same
// handle through the machine it already holds, so enabling observability for
// a run is ONE field assignment and the default (nullptr) compiles every
// instrumentation site down to a single predictable branch.
//
// Not thread-safe: attach one Telemetry per single-threaded experiment run.
// The multi-threaded sweep in eval::AggregateDetection runs with telemetry
// detached.
#pragma once

#include <iosfwd>
#include <string>

#include "telemetry/audit.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/tracer.h"

namespace sds::telemetry {

class Telemetry {
 public:
  explicit Telemetry(std::size_t tracer_capacity = EventTracer::kDefaultCapacity)
      : tracer_(tracer_capacity) {}

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  EventTracer& tracer() { return tracer_; }
  const EventTracer& tracer() const { return tracer_; }
  AuditLog& audit() { return audit_; }
  const AuditLog& audit() const { return audit_; }
  // The span profiler starts DISABLED; call profiler().Enable() to pay for
  // (and get) per-subsystem time attribution.
  SpanProfiler& profiler() { return profiler_; }
  const SpanProfiler& profiler() const { return profiler_; }

  // Writes the full telemetry state as one JSONL stream: a header line, the
  // retained event window (tracer ring is drained), every audit record, the
  // profiler's span tree (when it was enabled), and a final metrics
  // snapshot. This is the format tools/inspect reads and benches write
  // via --telemetry_out.
  void WriteJsonl(std::ostream& os);
  // Convenience wrapper; returns false when the file cannot be opened.
  bool WriteJsonlFile(const std::string& path);

 private:
  MetricsRegistry metrics_;
  EventTracer tracer_;
  AuditLog audit_;
  SpanProfiler profiler_;
};

}  // namespace sds::telemetry
