// Actuation-plane chaos protocol.
//
// The robustness sweep (robustness.h) rots the detector's INPUT; this module
// rots the provider's RESPONSE. One victim and a bus-locking attacker share
// host 0 of a two-host cluster; at a fixed tick after the attack starts a
// synthetic alarm fires (no detector in the loop — the chaos harness
// isolates the actuation plane from detection delay variance) and the
// MitigationEngine drives its retry / escalation / fallback machinery
// through an Actuator whose ActuationFaultPlan loses, aborts or bounces the
// commands. The sweep grid (fault kind x rate) measures time-to-settled,
// escalation pressure, and the victim's residual degradation after the
// response — the curves behind the claim that the control plane converges
// under any per-command fault rate the chain can outlast.
//
// Determinism: the simulation trajectory is a pure function of the run seed
// and the fault schedule a pure function of the plan seed, so a faulted run
// and its fault-free baseline see the same workload and attack.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "cluster/mitigation.h"
#include "common/types.h"
#include "fault/actuation_plan.h"

namespace sds::eval {

// The sweep's standard response: migrate the victim to the spare host, with
// the full retry / escalation / throttle-fallback chain enabled.
inline cluster::MitigationConfig DefaultActuationMitigation() {
  cluster::MitigationConfig config;
  config.policy = cluster::MitigationPolicy::kMigrateVictim;
  config.spare_host = 1;
  return config;
}

struct ActuationRunConfig {
  cluster::MitigationConfig mitigation = DefaultActuationMitigation();
  fault::ActuationFaultPlan plan;
  // Pass the true attacker id with the alarm (models KStest-style
  // identification); false = unattributed.
  bool attribute = false;

  std::string app = "kmeans";
  int benign_vms = 2;
  Tick clean_window = 400;     // clean-rate measurement
  Tick attack_lead = 300;      // attacked ticks before the alarm fires
  Tick settle_cap = 3000;      // ticks the engine gets to reach a terminal state
  Tick post_window = 400;      // post-response rate measurement
};

struct ActuationRunResult {
  bool settled = false;
  bool failed = false;
  cluster::MitigationState final_state = cluster::MitigationState::kIdle;
  cluster::MitigationPolicy applied = cluster::MitigationPolicy::kNone;
  Tick alarm_tick = kInvalidTick;
  // settled_tick - alarm_tick; -1 when the engine never settled.
  Tick time_to_settled = -1;

  double rate_clean = 0.0;     // victim LLC accesses / tick, clean window
  double rate_attacked = 0.0;  // same, during the attack lead
  double rate_post = 0.0;      // same, post window at the final placement
  // 1 - min(1, rate_post / rate_clean): 0 = full recovery, 1 = dead.
  double residual_degradation = 1.0;

  cluster::MitigationStats mitigation;
  fault::ActuationFaultStats actuation;
};

// One seeded chaos run. Fully deterministic for a fixed (config, seed).
ActuationRunResult RunActuationRun(const ActuationRunConfig& config,
                                   std::uint64_t seed);

struct ActuationSweepConfig {
  ActuationRunConfig run;
  std::vector<fault::ActuationFaultKind> kinds = {
      fault::ActuationFaultKind::kCommandLost,
      fault::ActuationFaultKind::kMigrationAbort,
      fault::ActuationFaultKind::kSpareHostDown,
      fault::ActuationFaultKind::kSpareAtCapacity,
      fault::ActuationFaultKind::kStopRejected,
  };
  // Faulted cells also run with a 2..12-tick command latency; the baseline
  // stays synchronous.
  std::vector<double> rates = {0.1, 0.25, 0.5};
  int runs_per_cell = 3;
  std::uint64_t base_seed = 7100;
};

// One (kind, rate) grid cell, aggregated over runs_per_cell seeded runs.
struct ActuationCell {
  fault::ActuationFaultKind kind = fault::ActuationFaultKind::kCommandLost;
  double rate = 0.0;  // 0 = fault-free baseline cell
  int runs = 0;
  int settled_runs = 0;
  int failed_runs = 0;
  int escalated_runs = 0;  // runs that needed at least one escalation
  int throttle_runs = 0;   // runs that fell back to the hypervisor throttle
  // Over the settled runs; -1 when none settled.
  double mean_time_to_settled = -1.0;
  Tick max_time_to_settled = -1;
  double mean_residual_degradation = 0.0;

  std::uint64_t dispatches = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t escalations = 0;
  std::uint64_t injected = 0;
  std::uint64_t lost = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t conflicts = 0;

  double settle_ratio() const {
    return runs == 0 ? 0.0
                     : static_cast<double>(settled_runs) /
                           static_cast<double>(runs);
  }
};

struct ActuationSweepResult {
  ActuationCell baseline;
  std::vector<ActuationCell> cells;  // kinds x rates, kind-major
};

// Runs the grid in parallel; the thread count never changes a value.
ActuationSweepResult RunActuationSweep(const ActuationSweepConfig& config);

// Writes the whole sweep as one JSON object (the BENCH_actuation schema):
// policy, grid shape, the baseline cell and every grid cell with settle
// ratio, time-to-settled, escalation pressure and residual degradation.
void WriteActuationJson(std::ostream& os, const ActuationSweepConfig& config,
                        const ActuationSweepResult& result);

}  // namespace sds::eval
