#include "eval/actuation.h"

#include <algorithm>
#include <memory>
#include <ostream>
#include <span>

#include "attacks/bus_lock_attacker.h"
#include "attacks/scheduled_workload.h"
#include "common/check.h"
#include "eval/aggregate.h"
#include "workloads/catalog.h"

namespace sds::eval {

namespace {
// Ticks that settle the caches before measuring.
constexpr Tick kWarmupTicks = 100;
}  // namespace

ActuationRunResult RunActuationRun(const ActuationRunConfig& config,
                                   std::uint64_t seed) {
  SDS_CHECK(config.clean_window > 0 && config.attack_lead > 0 &&
                config.post_window > 0,
            "measurement windows must be positive");
  cluster::Cluster cl(2, cluster::HostConfig{}, seed);

  const Tick attack_start = kWarmupTicks + config.clean_window;
  const cluster::VmRef victim = cl.Deploy(
      0, "victim", [&config] { return workloads::MakeApp(config.app); });
  const cluster::VmRef attacker =
      cl.Deploy(0, "attacker", [attack_start] {
        return std::make_unique<attacks::ScheduledWorkload>(
            std::make_unique<attacks::BusLockAttacker>(
                attacks::BusLockConfig{}),
            attack_start, -1);
      });
  for (int i = 0; i < config.benign_vms; ++i) {
    cl.Deploy(0, "benign", [] { return workloads::MakeBenignUtility(); });
  }

  cluster::Actuator actuator(cl, config.plan);
  cluster::MitigationEngine engine(cl, victim, config.mitigation, &actuator);

  const auto step = [&] {
    cl.RunTick();
    engine.OnTick();
  };
  std::uint64_t mark = 0;
  const auto window_rate = [&](const cluster::VmRef& placement, Tick ticks) {
    const std::uint64_t now = cl.counters(placement).llc_accesses;
    const double rate =
        static_cast<double>(now - mark) / static_cast<double>(ticks);
    mark = now;
    return rate;
  };

  ActuationRunResult result;

  for (Tick t = 0; t < kWarmupTicks; ++t) step();
  mark = cl.counters(victim).llc_accesses;
  for (Tick t = 0; t < config.clean_window; ++t) step();
  result.rate_clean = window_rate(victim, config.clean_window);

  for (Tick t = 0; t < config.attack_lead; ++t) step();
  result.rate_attacked = window_rate(victim, config.attack_lead);

  result.alarm_tick = cl.now();
  engine.OnAlarm(config.attribute ? attacker.id : 0);
  Tick waited = 0;
  while (engine.state() != cluster::MitigationState::kSettled &&
         engine.state() != cluster::MitigationState::kFailed &&
         waited < config.settle_cap) {
    step();
    ++waited;
  }

  result.final_state = engine.state();
  result.settled = engine.state() == cluster::MitigationState::kSettled;
  result.failed = engine.state() == cluster::MitigationState::kFailed;
  result.applied = engine.applied_policy();
  if (result.settled) {
    result.time_to_settled = engine.settled_tick() - result.alarm_tick;
  }

  const cluster::VmRef placement = engine.victim();
  mark = cl.counters(placement).llc_accesses;
  for (Tick t = 0; t < config.post_window; ++t) step();
  result.rate_post = window_rate(placement, config.post_window);
  if (result.rate_clean > 0.0) {
    result.residual_degradation =
        1.0 - std::min(1.0, result.rate_post / result.rate_clean);
  }

  result.mitigation = engine.stats();
  result.actuation = actuator.stats();
  return result;
}

namespace {

// Seed of every fault plan in the sweep, varied per run and cell below.
constexpr std::uint64_t kFaultSeed = 0xac7f5eedull;
// Command latency of the faulted cells; the baseline keeps the plan's
// synchronous 0..0 so it pins the pre-actuation-plane behavior.
constexpr Tick kFaultedLatencyMin = 2;
constexpr Tick kFaultedLatencyMax = 12;

// Folds one grid cell's runs, in run order.
ActuationCell FoldCell(const FaultCell<fault::ActuationFaultKind>& grid_cell,
                       std::span<const ActuationRunResult> runs) {
  ActuationCell cell;
  cell.kind = grid_cell.kind;
  cell.rate = grid_cell.rate;
  double settle_sum = 0.0;
  double residual_sum = 0.0;
  for (const ActuationRunResult& res : runs) {
    ++cell.runs;
    if (res.settled) {
      ++cell.settled_runs;
      settle_sum += static_cast<double>(res.time_to_settled);
      cell.max_time_to_settled =
          std::max(cell.max_time_to_settled, res.time_to_settled);
    }
    if (res.failed) ++cell.failed_runs;
    if (res.mitigation.escalations > 0) ++cell.escalated_runs;
    if (res.applied == cluster::MitigationPolicy::kThrottleFallback) {
      ++cell.throttle_runs;
    }
    residual_sum += res.residual_degradation;

    cell.dispatches += res.mitigation.dispatches;
    cell.retries += res.mitigation.retries;
    cell.timeouts += res.mitigation.timeouts;
    cell.escalations += res.mitigation.escalations;
    cell.injected += res.actuation.injected_total();
    cell.lost += res.actuation.lost;
    cell.cancelled += res.actuation.cancelled;
    cell.conflicts += res.actuation.conflicts;
  }
  if (cell.settled_runs > 0) {
    cell.mean_time_to_settled = settle_sum / cell.settled_runs;
  }
  cell.mean_residual_degradation = residual_sum / cell.runs;
  return cell;
}

void WriteCellJson(std::ostream& os, const ActuationCell& cell,
                   const char* kind_name) {
  os << "{\"kind\":\"" << kind_name << "\",\"rate\":" << cell.rate
     << ",\"runs\":" << cell.runs << ",\"settled_runs\":" << cell.settled_runs
     << ",\"failed_runs\":" << cell.failed_runs
     << ",\"settle_ratio\":" << cell.settle_ratio()
     << ",\"mean_time_to_settled\":" << cell.mean_time_to_settled
     << ",\"max_time_to_settled\":" << cell.max_time_to_settled
     << ",\"escalated_runs\":" << cell.escalated_runs
     << ",\"throttle_runs\":" << cell.throttle_runs
     << ",\"mean_residual_degradation\":" << cell.mean_residual_degradation
     << ",\"dispatches\":" << cell.dispatches
     << ",\"retries\":" << cell.retries << ",\"timeouts\":" << cell.timeouts
     << ",\"escalations\":" << cell.escalations
     << ",\"injected\":" << cell.injected << ",\"lost\":" << cell.lost
     << ",\"cancelled\":" << cell.cancelled
     << ",\"conflicts\":" << cell.conflicts << "}";
}

}  // namespace

ActuationSweepResult RunActuationSweep(const ActuationSweepConfig& config) {
  // The baseline cell keeps the full engine + actuator machinery in the
  // path with an inert plan — synchronous, infallible, settles at the alarm
  // tick. Equals the one-shot engine's behavior by the actuation golden
  // invariant.
  const auto grid = FaultGrid(config.kinds, config.rates);
  const std::vector<ActuationRunResult> runs = RunGrid(
      grid.size(), config.runs_per_cell, DefaultThreads(),
      [&](std::size_t c, std::size_t r) {
        const FaultCell<fault::ActuationFaultKind>& cell = grid[c];
        ActuationRunConfig run = config.run;
        // Vary the fault schedule with the run AND the grid cell. Cells
        // fire few commands each, so if only the run index entered the seed
        // every cell would share one fault schedule and a single lucky draw
        // would blank the whole grid.
        run.plan = fault::ActuationFaultPlan::Single(
            cell.kind, cell.rate,
            kFaultSeed + std::uint64_t{0x9e3779b97f4a7c15} * (r + 1) +
                std::uint64_t{0x85ebca6b} *
                    (static_cast<std::uint64_t>(cell.kind) + 1) +
                std::uint64_t{0xc2b2ae3d} *
                    static_cast<std::uint64_t>(cell.rate * 1000.0));
        if (cell.rate > 0.0) {
          run.plan.latency_min_ticks = kFaultedLatencyMin;
          run.plan.latency_max_ticks = kFaultedLatencyMax;
        }
        return RunActuationRun(run, config.base_seed + r);
      });

  const auto per_cell = static_cast<std::size_t>(config.runs_per_cell);
  const std::span<const ActuationRunResult> all(runs);
  ActuationSweepResult result;
  result.baseline = FoldCell(grid[0], all.first(per_cell));
  for (std::size_t c = 1; c < grid.size(); ++c) {
    result.cells.push_back(
        FoldCell(grid[c], all.subspan(c * per_cell, per_cell)));
  }
  return result;
}

void WriteActuationJson(std::ostream& os, const ActuationSweepConfig& config,
                        const ActuationSweepResult& result) {
  os << "{\"bench\":\"actuation\",\"app\":\"" << config.run.app
     << "\",\"policy\":\""
     << cluster::MitigationPolicyName(config.run.mitigation.policy)
     << "\",\"attributed\":" << (config.run.attribute ? "true" : "false")
     << ",\"runs_per_cell\":" << config.runs_per_cell
     << ",\"command_timeout\":" << cluster::kCommandTimeout
     << ",\"max_attempts\":" << cluster::kMaxAttempts
     << ",\"verify_window\":" << config.run.mitigation.verify_window
     << ",\"latency\":[" << kFaultedLatencyMin << "," << kFaultedLatencyMax
     << "],\"baseline\":";
  WriteCellJson(os, result.baseline, "none");
  os << ",\"cells\":[";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    if (i > 0) os << ",";
    WriteCellJson(os, result.cells[i],
                  fault::ActuationFaultKindName(result.cells[i].kind));
  }
  os << "]}";
}

}  // namespace sds::eval
