// Deterministic fault plans for the monitoring plane.
//
// A FaultPlan describes WHICH imperfections the monitoring plane suffers and
// HOW OFTEN, in two composable forms:
//
//   * stochastic rates — per-tick Bernoulli probabilities drawn from the
//     plan's own seeded RNG stream (never the simulation's), so a fault
//     sweep perturbs the monitoring plane without changing the workload or
//     attack realization under it;
//   * scheduled faults — exact (tick, kind, duration) triples for tests and
//     reproductions that need a fault at a known instant.
//
// The plan is plain data: the FaultInjector (fault_injector.h) interprets it.
// A default-constructed plan is inert (enabled() == false) and the injector
// then degenerates to a bit-transparent passthrough.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "fault/plan.h"

namespace sds::fault {

enum class FaultKind : std::uint8_t {
  // One PCM read is lost in transport: the interval's delta is consumed but
  // never reaches the consumer (a one-tick hole in the stream).
  kDropSample = 0,
  // One read is delayed and merged into the next: the consumer sees a hole
  // followed by a delta spanning both intervals (interval jitter/coalescing).
  kCoalesce,
  // Transient sampler outage: no reads for `duration` ticks, after which the
  // first read spans the whole gap. Self-recovers.
  kOutage,
  // The sampler process dies: no reads, and it stays dead until a watchdog
  // restart succeeds (TryRestart fails for `duration` ticks).
  kSamplerDeath,
  // Cumulative counters reset mid-interval (VM migration, MSR reprogramming):
  // the delta against the stale baseline wraps to a physically impossible
  // value for exactly one sample.
  kCounterReset,
  // Counter saturation: the interval delta clamps at a ceiling, silently
  // under-reporting activity while the fault is active.
  kSaturation,
  // Corrupted sample: a high bit flips (absurd value) or the fields zero out
  // (plausible but wrong), chosen by the plan's RNG.
  kCorruption,
  kKindCount,
};

inline constexpr std::size_t kFaultKindCount =
    static_cast<std::size_t>(FaultKind::kKindCount);

struct ScheduledFault {
  Tick tick = 0;
  FaultKind kind = FaultKind::kDropSample;
  // Duration in ticks for windowed kinds (outage, death, saturation);
  // ignored by the one-shot kinds.
  Tick duration = 0;
};

template <>
struct PlanFields<FaultKind> {
  static constexpr std::uint64_t kDefaultSeed = 0x5eedfa0175ull;
  static constexpr std::array<const char*, kFaultKindCount> kNames = {
      "drop_sample",   "coalesce",   "outage",    "sampler_death",
      "counter_reset", "saturation", "corruption"};

  // Ceiling a saturated counter delta clamps to.
  std::uint64_t saturation_cap = 64;

  // Exact faults, applied when the simulation reaches `tick`. Order within
  // one tick follows vector order.
  std::vector<ScheduledFault> scheduled;

  bool extra_enabled() const { return !scheduled.empty(); }
};

// Rates are per-tick probabilities.
using FaultPlan = Plan<FaultKind>;

inline const char* FaultKindName(FaultKind kind) { return KindName(kind); }

// Per-kind and aggregate injection counts, kept by the injector.
struct FaultStats : InjectedCounts<FaultKind> {
  // Ticks on which the consumer received nothing (drops, coalesce holes,
  // outage and death ticks combined).
  std::uint64_t missing_ticks = 0;
  // Samples whose values were tampered with (reset/saturation/corruption).
  std::uint64_t tampered_samples = 0;
  std::uint64_t restart_attempts = 0;
  std::uint64_t restarts_denied = 0;
  std::uint64_t restarts = 0;
};

}  // namespace sds::fault
