// Common interface for online attack detectors driven by the experiment
// harness: after every hypervisor tick the harness calls OnTick(), and the
// detector exposes a continuous "attack in progress" decision. Detectors own
// their PCM samplers (and any hypervisor control they need, e.g. the KStest
// baseline's execution throttling), so their measurement overhead is part of
// the simulation rather than an accounting fiction.
#pragma once

#include <string_view>

#include "common/types.h"

namespace sds::detect {

class Detector {
 public:
  virtual ~Detector() = default;

  // Called once after every hypervisor tick.
  virtual void OnTick() = 0;

  // The detector's current decision: is an attack in progress?
  virtual bool attack_active() const = 0;

  // Number of discrete alarm events raised so far (rising edges of the
  // decision, plus explicit re-declarations for detectors that have them).
  // The harness measures detection delay from attack start to the first NEW
  // alarm event, so a false-positive state latched across the attack start
  // does not masquerade as an instant detection.
  virtual std::uint64_t alarm_events() const = 0;

  // The tick at which the most recent alarm event was TRIGGERED — for SDS
  // the H_C-th consecutive violation, for the KStest baseline the suspicion
  // that launched the identification sweep (the sweep's completion is when
  // the event fires). The harness uses this to discard alarm events whose
  // cause predates the attack.
  virtual Tick last_alarm_trigger_tick() const = 0;

  virtual std::string_view name() const = 0;
};

}  // namespace sds::detect
