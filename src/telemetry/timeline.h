// Incident timeline reconstruction: joins the tracer's event window, the
// detector audit log and the span profiler into one causal chain per alarm
// episode —
//
//   attack phase begins -> first observable contention -> detector's first
//   post-attack check -> first violating check of the decisive streak ->
//   alarm -> mitigation actuation
//
// — and decomposes the headline detection delay (paper Figure 11) into the
// stages it is actually spent in:
//
//   sampling_wait      attack start until the detector first EVALUATED a
//                      post-attack statistic (PCM cadence + EWMA/MA window
//                      fill; for KStest also the L_M monitoring grid);
//   detector_compute   first post-attack check until the decisive violation
//                      streak began (how long the statistics took to cross
//                      the boundary);
//   debounce           decisive streak start until the alarm (the H_C
//                      consecutive-violation rule's deliberate holdoff);
//   mitigation         alarm until the MitigationEngine acted (0 when no
//                      engine is wired up).
//
// The reconstruction is driven by AUDIT records, which unlike tracer events
// survive ring overflow, so it stays correct on long runs; events only
// refine the picture (first bus saturation / cross-owner eviction), and the
// profiler contributes the wall-time cost of the detector's checks.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"

namespace sds::telemetry {

class Telemetry;

struct DelayDecomposition {
  Tick sampling_wait = 0;
  Tick detector_compute = 0;
  Tick debounce = 0;
  Tick mitigation = 0;
  // sampling_wait + detector_compute + debounce == alarm - attack_start.
  Tick detection_total() const {
    return sampling_wait + detector_compute + debounce;
  }
};

struct Incident {
  std::string detector;
  // Statistic channel whose violation streak raised the alarm.
  std::string channel;
  Tick attack_start = kInvalidTick;
  // First contention symptom in the event window (bus_saturated /
  // cross_owner_eviction / lock_window_open at or after attack_start). The
  // machine emits the last two as one aggregate per (tick, owner), so a
  // default-size ring keeps them for a whole attack episode; kInvalidTick
  // when they were dropped anyway or tracing was off.
  Tick first_contention = kInvalidTick;
  Tick first_check = kInvalidTick;       // first post-attack audited check
  Tick streak_start = kInvalidTick;      // first violation of decisive streak
  Tick alarm = kInvalidTick;
  Tick mitigation = kInvalidTick;        // kInvalidTick when none occurred
  DelayDecomposition delay;
};

struct TimelineOptions {
  // Tick the attack program activated. kInvalidTick = recover it from the
  // eval-layer "attack_phase_begin" trace event; reconstruction then skips
  // incident assembly (returning alarms only, with empty decompositions) if
  // neither source provides it.
  Tick attack_start = kInvalidTick;
};

// One incident per rising alarm edge at or after the attack start, in tick
// order. Alarm edges BEFORE the attack start (false positives) are ignored:
// they have no detection delay to decompose.
std::vector<Incident> ReconstructIncidents(const Telemetry& telemetry,
                                           const TimelineOptions& options = {});

// Human-readable report: one causal chain per incident plus, when the span
// profiler holds data, the measured wall cost of the detector's per-sample
// work (the "detector compute" stage in real nanoseconds rather than ticks).
void WriteIncidentReport(std::ostream& os,
                         const std::vector<Incident>& incidents,
                         const Telemetry& telemetry,
                         double tpcm_seconds = kDefaultTpcmSeconds);

}  // namespace sds::telemetry
