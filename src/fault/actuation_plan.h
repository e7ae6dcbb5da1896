// Deterministic fault plans for the ACTUATION plane (the control-plane
// counterpart of fault_plan.h's monitoring-plane catalog).
//
// Where a FaultPlan describes how the detector's INPUT stream rots, an
// ActuationFaultPlan describes how the provider's RESPONSE path fails: the
// hypervisor commands a mitigation (migrate the victim, stop the attacker)
// and the command is lost in transport, aborts mid-flight, or bounces off a
// spare host that is down or out of capacity. Real clouds pay exactly these
// costs — live migration fails and retries, placement constraints reject the
// chosen destination — which is why the MitigationEngine needs retry,
// escalation and verification machinery at all.
//
// The plan (shared shape: plan.h) is interpreted by cluster::Actuator. A
// default-constructed plan is inert: every command then lands instantly and
// infallibly, and the actuator is bit-transparent.
#pragma once

#include <array>
#include <cstdint>

#include "common/types.h"
#include "fault/plan.h"

namespace sds::fault {

enum class ActuationFaultKind : std::uint8_t {
  // The command is lost in transport: it is accepted but never acknowledged
  // and never executes. Only the engine's per-action timeout catches it.
  kCommandLost = 0,
  // The migration aborts mid-flight after its full latency was paid: the
  // source VM keeps running in place, nothing moved.
  kMigrationAbort,
  // The destination host goes down for a drawn window. The triggering
  // command fails, and every later migration into that host fails fast
  // until the window expires.
  kSpareHostDown,
  // The placement check at completion rejects the destination as full even
  // though the capacity bookkeeping said otherwise (stale admission data).
  kSpareAtCapacity,
  // A stop command bounces off the target hypervisor.
  kStopRejected,
  kKindCount,
};

inline constexpr std::size_t kActuationFaultKindCount =
    static_cast<std::size_t>(ActuationFaultKind::kKindCount);

template <>
struct PlanFields<ActuationFaultKind> {
  static constexpr std::uint64_t kDefaultSeed = 0xac70a7e5eedull;
  static constexpr std::array<const char*, kActuationFaultKindCount> kNames =
      {"command-lost", "migration-abort", "spare-host-down",
       "spare-at-capacity", "stop-rejected"};

  // Actuation latency in ticks, drawn uniformly per command (inclusive
  // range). The default 0..0 completes commands synchronously at submit,
  // which is what keeps a null plan bit-transparent.
  Tick latency_min_ticks = 0;
  Tick latency_max_ticks = 0;

  // How long a host stays unusable once kSpareHostDown fires (inclusive
  // range, drawn per event).
  Tick host_down_min_ticks = 20;
  Tick host_down_max_ticks = 120;

  // A nonzero latency perturbs timing even with every rate at zero.
  bool extra_enabled() const { return latency_max_ticks > 0; }
};

// Rates are per-command probabilities. Kinds that do not apply to a command
// type (e.g. kStopRejected for a migration) are skipped without consuming a
// draw.
using ActuationFaultPlan = Plan<ActuationFaultKind>;

inline const char* ActuationFaultKindName(ActuationFaultKind kind) {
  return KindName(kind);
}

// Per-kind and aggregate actuation accounting, kept by the actuator.
struct ActuationFaultStats : InjectedCounts<ActuationFaultKind> {
  std::uint64_t commands = 0;   // submissions accepted (conflicts excluded)
  std::uint64_t conflicts = 0;  // submissions rejected: target already busy
  std::uint64_t completed = 0;  // commands that executed successfully
  std::uint64_t failed = 0;     // commands that completed with an error
  std::uint64_t lost = 0;       // commands that will never acknowledge
  std::uint64_t cancelled = 0;  // commands abandoned by the caller
  // Total submit->completion latency over completed + failed commands.
  std::uint64_t latency_ticks = 0;
};

}  // namespace sds::fault
