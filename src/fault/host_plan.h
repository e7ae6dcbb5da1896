// Deterministic fault plans for the HOST plane (the infrastructure
// counterpart of fault_plan.h's monitoring-plane catalog and
// actuation_plan.h's control-plane catalog).
//
// Where a FaultPlan rots the detector's input stream and an
// ActuationFaultPlan rots individual mitigation commands, a HostFaultPlan
// kills or degrades whole hosts: a host crashes and stops ticking for a
// window, hangs in a degraded mode where it serves only one tick in N,
// comes back through a recovery phase with scheduled latency, fails that
// recovery (flaky hardware), or dies permanently. Real fleets pay exactly
// these costs — which is why the cluster needs a host state machine, VM
// evacuation, and warm detector-state handoff at all (DESIGN.md §17).
//
// The plan (shared shape: plan.h) is interpreted by cluster::HostLifecycle.
// A default-constructed plan is inert: every host then serves every tick
// forever, and the lifecycle layer is bit-transparent (pinned by
// tests/integration/hostchaos_transparency_test).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "fault/plan.h"

namespace sds::fault {

enum class HostFaultKind : std::uint8_t {
  // The host stops serving ticks for a drawn down window, then enters
  // recovery (drawn latency) before serving again.
  kCrash = 0,
  // The host hangs intermittently for a drawn window: it serves only one
  // tick in every `degrade_stride` (VMs and samplers on it stall).
  kDegrade,
  // A completed recovery fails: the host drops straight back into a fresh
  // down window instead of coming up. Rate is per recovery ATTEMPT, not per
  // host-tick.
  kFlakyRecovery,
  // The host crashes and never recovers. Its VMs are gone unless the
  // evacuation engine moves them elsewhere.
  kPermanentDeath,
  kKindCount,
};

inline constexpr std::size_t kHostFaultKindCount =
    static_cast<std::size_t>(HostFaultKind::kKindCount);

// A fault pinned to an exact (tick, host) — deterministic chaos scheduling
// for tests and for sweep cells that must contain at least one event
// regardless of the Bernoulli rates. kFlakyRecovery cannot be scheduled
// (it is a property of a recovery attempt, not of a tick).
struct ScheduledHostFault {
  Tick tick = 0;
  int host = 0;
  HostFaultKind kind = HostFaultKind::kCrash;
  // Down window (kCrash) or degrade window (kDegrade); 0 = draw from the
  // plan's range. Ignored for kPermanentDeath.
  Tick duration = 0;
};

template <>
struct PlanFields<HostFaultKind> {
  static constexpr std::uint64_t kDefaultSeed = 0x405fa17c4a05ull;
  static constexpr std::array<const char*, kHostFaultKindCount> kNames = {
      "host-crash", "host-degrade", "flaky-recovery", "permanent-death"};

  // Crash outage window (inclusive range, drawn per crash).
  Tick down_min_ticks = 200;
  Tick down_max_ticks = 1200;

  // Service stride inside a degraded-mode window: the host serves one tick
  // in every `degrade_stride`.
  int degrade_stride = 4;

  // Scheduled recovery latency: ticks spent in the recovering state after a
  // down window expires, before the host serves again (inclusive range,
  // drawn per recovery attempt).
  Tick recovery_min_ticks = 50;
  Tick recovery_max_ticks = 250;

  // Deterministic events applied on top of (and before) the Bernoulli
  // draws at their exact tick.
  std::vector<ScheduledHostFault> scheduled;

  bool extra_enabled() const { return !scheduled.empty(); }
};

// kCrash, kDegrade and kPermanentDeath rates are per host-tick (drawn for
// every UP host every tick); kFlakyRecovery is per recovery attempt.
using HostFaultPlan = Plan<HostFaultKind>;

inline const char* HostFaultKindName(HostFaultKind kind) {
  return KindName(kind);
}

// Per-kind and aggregate host-plane accounting, kept by the lifecycle.
struct HostFaultStats : InjectedCounts<HostFaultKind> {
  std::uint64_t crashes = 0;            // down windows entered (incl. flaky)
  std::uint64_t degraded_windows = 0;   // degrade windows entered
  std::uint64_t degraded_skipped = 0;   // ticks a degraded host did not serve
  std::uint64_t down_ticks = 0;         // host-ticks spent down or recovering
  std::uint64_t recovery_attempts = 0;  // down windows that expired
  std::uint64_t recovery_failures = 0;  // attempts that went straight back down
  std::uint64_t permanent_deaths = 0;
};

}  // namespace sds::fault
