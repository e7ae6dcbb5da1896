#include "eval/hostchaos.h"

#include <algorithm>
#include <memory>
#include <ostream>
#include <span>
#include <utility>

#include "attacks/bus_lock_attacker.h"
#include "attacks/scheduled_workload.h"
#include "cluster/actuator.h"
#include "cluster/cluster.h"
#include "cluster/host_lifecycle.h"
#include "common/check.h"
#include "detect/profile.h"
#include "detect/sds_detector.h"
#include "eval/aggregate.h"
#include "eval/experiment.h"
#include "workloads/catalog.h"

namespace sds::eval {

HostChaosRunResult RunHostChaosRun(const HostChaosRunConfig& config,
                                   std::uint64_t seed) {
  SDS_CHECK(config.hosts >= 2, "chaos runs need a migration destination");
  SDS_CHECK(config.horizon > config.attack_start,
            "horizon must reach past the attack start");
  SDS_CHECK(config.migrate_every >= 0, "migration period must be >= 0");

  // Profile the victim clean in an equivalent single-host deployment, then
  // pin the same profile for every detector incarnation — the handoff
  // fingerprint must match across migrations by construction.
  detect::DetectorParams params = config.params;
  ScenarioConfig profile_base;
  profile_base.app = config.app;
  profile_base.benign_vms = config.benign_vms;
  const auto clean = CollectCleanSamples(profile_base, 4000, seed + 1);
  const detect::SdsProfile profile = detect::BuildSdsProfile(clean, params);

  cluster::HostConfig host;
  host.vm_capacity = config.vm_capacity;
  cluster::Cluster cl(config.hosts, host, seed);
  cluster::HostLifecycle lifecycle(config.hosts, config.host_plan);
  cl.AttachLifecycle(&lifecycle);
  // Fault-free actuation: every command is terminal when Submit returns.
  cluster::Actuator actuator(cl);
  cluster::EvacuationEngine evacuation(cl, lifecycle, actuator);

  // One victim on host 0; a scheduled bus-locking attacker co-resident on
  // EVERY host so the contention signature follows the victim wherever it
  // lands; benign utility co-tenants everywhere.
  cluster::VmRef victim = cl.Deploy(
      0, "victim", [&config] { return workloads::MakeApp(config.app); });
  const Tick attack_start = config.attack_start;
  for (int h = 0; h < config.hosts; ++h) {
    cl.Deploy(h, "attacker", [attack_start] {
      return std::make_unique<attacks::ScheduledWorkload>(
          std::make_unique<attacks::BusLockAttacker>(attacks::BusLockConfig{}),
          attack_start, -1);
    });
    for (int i = 0; i < config.benign_vms; ++i) {
      cl.Deploy(h, "benign", [] { return workloads::MakeBenignUtility(); });
    }
  }

  auto make_detector = [&](const cluster::VmRef& vm) {
    return std::make_unique<detect::SdsDetector>(
        cl.hypervisor(vm.host), vm.id, profile, params,
        detect::SdsMode::kCombined);
  };
  std::unique_ptr<detect::SdsDetector> detector = make_detector(victim);

  HostChaosRunResult result;
  Tick blind_since = kInvalidTick;
  std::size_t open_event = 0;
  bool migrated_this_tick = false;

  const auto close_blind = [&](Tick now) {
    if (blind_since == kInvalidTick) return;
    const Tick blind = now - blind_since;
    result.blind_ticks += static_cast<std::uint64_t>(blind);
    result.max_blind_ticks = std::max(result.max_blind_ticks, blind);
    result.handoff_events[open_event].blind_ticks = blind;
    blind_since = kInvalidTick;
  };

  // Moves the detector with the victim: pack the outgoing detector at the
  // current tick boundary, construct the destination detector (its fresh
  // sampler re-baselines here — the sampler-phase contract in
  // obs/handoff.h), then apply the envelope. Never touches
  // SaveState/RestoreState directly; only the versioned obs wrappers.
  const auto migrate_detector = [&](const cluster::VmRef& from,
                                    const cluster::VmRef& to, bool forced) {
    const Tick now = cl.now();
    HandoffEvent event;
    event.tick = now;
    event.from = from;
    event.to = to;
    event.forced = forced;
    std::string blob;
    if (config.warm_handoff) blob = obs::PackSdsHandoff(*detector, now);
    std::unique_ptr<detect::SdsDetector> fresh = make_detector(to);
    if (config.warm_handoff) {
      const obs::HandoffResult handoff =
          obs::ApplySdsHandoff(blob, fresh.get());
      result.handoffs.Count(handoff);
      event.warm = handoff.warm;
      event.status = SnapshotStatusName(handoff.status);
    } else {
      ++result.handoffs.attempts;
      ++result.handoffs.cold_other;
      event.status = "disabled";
    }
    detector = std::move(fresh);
    victim = to;
    ++result.migrations;
    migrated_this_tick = true;
    // A migration after attack start opens a blind window (closing any
    // window the previous migration left open: those unsighted ticks are
    // real and already elapsed).
    close_blind(now);
    result.handoff_events.push_back(event);
    if (now > config.attack_start) {
      blind_since = now;
      open_event = result.handoff_events.size() - 1;
    }
  };

  evacuation.set_on_migrated(
      [&](const cluster::VmRef& from, const cluster::VmRef& to) {
        if (from.host == victim.host && from.id == victim.id) {
          migrate_detector(from, to, /*forced=*/false);
        }
      });

  Tick next_forced = config.migrate_every > 0
                         ? config.attack_start + config.migrate_every
                         : kInvalidTick;

  for (Tick t = 0; t < config.horizon; ++t) {
    migrated_this_tick = false;
    cl.RunTick();
    actuator.OnTick();
    evacuation.OnTick();
    const Tick now = cl.now();

    // Forced periodic victim migration (the evasion cell); a failed one
    // waits for the next period.
    if (next_forced != kInvalidTick && now >= next_forced) {
      int dest = -1;
      for (int i = 1; i < config.hosts; ++i) {
        const int h = (victim.host + i) % config.hosts;
        if (cl.host_placeable(h) && cl.HasCapacity(h)) {
          dest = h;
          break;
        }
      }
      if (dest >= 0 && cl.IsRunnable(victim)) {
        const cluster::CommandResult& forced =
            actuator.result(actuator.SubmitMigrate(victim, dest));
        if (forced.status == cluster::CommandStatus::kSucceeded) {
          migrate_detector(victim, forced.placement, /*forced=*/true);
        }
      }
      next_forced += config.migrate_every;
    }

    // The detector only ticks when the victim's host served this tick: a
    // frozen host produces no new PCM interval, and on a migration tick the
    // destination detector baselined at this boundary and samples from the
    // next tick on (both handoff modes skip identically).
    if (!migrated_this_tick && cl.host_serving(victim.host)) {
      detector->OnTick();
      const bool attacked = now > config.attack_start;
      const bool active = detector->attack_active();
      if (attacked && active && result.first_alarm_tick == kInvalidTick) {
        result.first_alarm_tick = now;
      }
      if (attacked && active) close_blind(now);
      if (attacked && result.migrations > 0) {
        ++result.attacked_serving_ticks;
        if (!active) ++result.missed_ticks;
      }
    }
  }

  // Censor any still-open blind window at the horizon.
  close_blind(cl.now());

  result.host_faults = lifecycle.stats();
  result.evacuation = evacuation.stats();
  result.transitions = lifecycle.transitions();
  result.evacuation_records = evacuation.records();
  return result;
}

namespace {

// Folds one cell side's runs, in run order.
HostChaosCellSide FoldSide(std::span<const HostChaosRunResult> runs) {
  HostChaosCellSide side;
  std::uint64_t blind_sum = 0;
  std::uint64_t migration_sum = 0;
  std::uint64_t missed_sum = 0;
  std::uint64_t attacked_sum = 0;
  std::uint64_t evac_tick_sum = 0;
  for (const HostChaosRunResult& run : runs) {
    ++side.runs;
    side.migrations += run.migrations;
    side.warm_handoffs += static_cast<int>(run.handoffs.warm);
    side.cold_handoffs += static_cast<int>(run.handoffs.attempts -
                                           run.handoffs.warm);
    side.max_blind_ticks = std::max(side.max_blind_ticks, run.max_blind_ticks);
    blind_sum += run.blind_ticks;
    migration_sum += static_cast<std::uint64_t>(run.migrations);
    missed_sum += run.missed_ticks;
    attacked_sum += run.attacked_serving_ticks;
    side.evac_started += run.evacuation.started;
    side.evac_migrated += run.evacuation.migrated;
    side.evac_throttled += run.evacuation.throttled_in_place;
    side.evac_abandoned += run.evacuation.abandoned;
    side.down_ticks += run.host_faults.down_ticks;
    evac_tick_sum += run.evacuation.evacuation_ticks;
  }
  if (migration_sum > 0) {
    side.mean_blind_ticks = static_cast<double>(blind_sum) /
                            static_cast<double>(migration_sum);
  }
  if (attacked_sum > 0) {
    side.missed_alarm_rate = static_cast<double>(missed_sum) /
                             static_cast<double>(attacked_sum);
  }
  if (side.evac_migrated > 0) {
    side.mean_evacuation_ticks = static_cast<double>(evac_tick_sum) /
                                 static_cast<double>(side.evac_migrated);
  }
  return side;
}

bool WarmBeatsCold(const HostChaosCell& cell) {
  return cell.warm.mean_blind_ticks < cell.cold.mean_blind_ticks &&
         cell.warm.missed_alarm_rate < cell.cold.missed_alarm_rate;
}

void WriteSideJson(std::ostream& os, const HostChaosCellSide& side) {
  os << "{\"runs\":" << side.runs << ",\"migrations\":" << side.migrations
     << ",\"warm_handoffs\":" << side.warm_handoffs
     << ",\"cold_handoffs\":" << side.cold_handoffs
     << ",\"mean_blind_ticks\":" << side.mean_blind_ticks
     << ",\"max_blind_ticks\":" << side.max_blind_ticks
     << ",\"missed_alarm_rate\":" << side.missed_alarm_rate
     << ",\"evac_started\":" << side.evac_started
     << ",\"evac_migrated\":" << side.evac_migrated
     << ",\"evac_throttled\":" << side.evac_throttled
     << ",\"evac_abandoned\":" << side.evac_abandoned
     << ",\"mean_evacuation_ticks\":" << side.mean_evacuation_ticks
     << ",\"down_ticks\":" << side.down_ticks << "}";
}

void WriteCellJson(std::ostream& os, const HostChaosCell& cell) {
  os << "{\"chaos\":" << (cell.chaos ? "true" : "false")
     << ",\"migrate_every\":" << cell.migrate_every
     << ",\"crash_rate\":" << cell.crash_rate << ",\"warm\":";
  WriteSideJson(os, cell.warm);
  os << ",\"cold\":";
  WriteSideJson(os, cell.cold);
  os << "}";
}

}  // namespace

HostChaosRunConfig ChaosCellRun(const HostChaosSweepConfig& config,
                                double crash_rate) {
  SDS_CHECK(crash_rate >= 0.0 && crash_rate <= 1.0,
            "crash rates must be probabilities");
  HostChaosRunConfig run = config.run;
  run.migrate_every = 0;
  run.host_plan = fault::HostFaultPlan{};
  run.host_plan.set_rate(fault::HostFaultKind::kCrash, crash_rate);
  // Guarantee at least one victim evacuation per run regardless of how the
  // random crashes land.
  fault::ScheduledHostFault crash;
  crash.tick = config.run.attack_start + config.scheduled_crash_after;
  crash.host = 0;
  crash.kind = fault::HostFaultKind::kCrash;
  crash.duration = config.scheduled_crash_down;
  run.host_plan.scheduled.push_back(crash);
  return run;
}

HostChaosSweepResult RunHostChaosSweep(const HostChaosSweepConfig& config) {
  SDS_CHECK(!config.migration_periods.empty() || !config.crash_rates.empty(),
            "empty sweep grid");
  // The migration cells, then the chaos cells.
  std::vector<HostChaosRunConfig> cells;
  for (const Tick period : config.migration_periods) {
    SDS_CHECK(period > 0, "migration periods must be positive");
    HostChaosRunConfig run = config.run;
    run.migrate_every = period;
    run.host_plan = fault::HostFaultPlan{};  // pure evasion cell: no faults
    cells.push_back(std::move(run));
  }
  for (const double rate : config.crash_rates) {
    cells.push_back(ChaosCellRun(config, rate));
  }

  // Grid cell 2c is cell c warm, 2c + 1 the same cell cold: the SAME (run
  // seed, fault seed) pairs executed both ways, so the only difference
  // between the sides is whether the detector state travels and the metric
  // gap is the handoff win.
  const std::vector<HostChaosRunResult> runs = RunGrid(
      2 * cells.size(), config.runs_per_cell, DefaultThreads(),
      [&](std::size_t g, std::size_t r) {
        HostChaosRunConfig run = cells[g / 2];
        run.warm_handoff = g % 2 == 0;
        // Fault schedules are a pure function of (fault seed, cell, run
        // index) — and deliberately NOT of the handoff mode, so warm and
        // cold replay identical worlds. Cell tags count from 1.
        const std::uint64_t cell_tag = g / 2 + 1;
        run.host_plan.seed = kHostChaosFaultSeed +
                             std::uint64_t{0x9e3779b97f4a7c15} * (r + 1) +
                             std::uint64_t{0x85ebca6b} * (cell_tag + 1);
        return RunHostChaosRun(run, config.base_seed + r);
      });

  const auto per_side = static_cast<std::size_t>(config.runs_per_cell);
  const std::span<const HostChaosRunResult> all(runs);
  HostChaosSweepResult result;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    HostChaosCell cell;
    cell.chaos = cells[c].host_plan.enabled();
    cell.migrate_every = cells[c].migrate_every;
    cell.warm = FoldSide(all.subspan(2 * c * per_side, per_side));
    cell.cold = FoldSide(all.subspan((2 * c + 1) * per_side, per_side));
    result.warm_strictly_better =
        result.warm_strictly_better && WarmBeatsCold(cell);
    if (c < config.migration_periods.size()) {
      result.migration_cells.push_back(std::move(cell));
    } else {
      cell.crash_rate =
          config.crash_rates[c - config.migration_periods.size()];
      result.chaos_cells.push_back(std::move(cell));
    }
  }
  return result;
}

void WriteHostChaosJson(std::ostream& os, const HostChaosSweepConfig& config,
                        const HostChaosSweepResult& result) {
  os << "{\"bench\":\"hostchaos\",\"app\":\"" << config.run.app
     << "\",\"hosts\":" << config.run.hosts
     << ",\"benign_vms\":" << config.run.benign_vms
     << ",\"attack_start\":" << config.run.attack_start
     << ",\"horizon\":" << config.run.horizon
     << ",\"runs_per_cell\":" << config.runs_per_cell
     << ",\"scheduled_crash_after\":" << config.scheduled_crash_after
     << ",\"scheduled_crash_down\":" << config.scheduled_crash_down
     << ",\"migration_cells\":[";
  for (std::size_t i = 0; i < result.migration_cells.size(); ++i) {
    if (i > 0) os << ",";
    WriteCellJson(os, result.migration_cells[i]);
  }
  os << "],\"chaos_cells\":[";
  for (std::size_t i = 0; i < result.chaos_cells.size(); ++i) {
    if (i > 0) os << ",";
    WriteCellJson(os, result.chaos_cells[i]);
  }
  os << "],\"warm_strictly_better\":"
     << (result.warm_strictly_better ? "true" : "false") << "}";
}

void WriteHostChaosTrace(std::ostream& os, const HostChaosRunConfig& config,
                         const HostChaosRunResult& result) {
  os << "{\"type\":\"hostchaos_header\",\"app\":\"" << config.app
     << "\",\"hosts\":" << config.hosts
     << ",\"warm_handoff\":" << (config.warm_handoff ? "true" : "false")
     << ",\"attack_start\":" << config.attack_start
     << ",\"horizon\":" << config.horizon << "}\n";
  for (const cluster::HostTransition& tr : result.transitions) {
    os << "{\"type\":\"host_state\",\"tick\":" << tr.tick
       << ",\"host\":" << tr.host << ",\"from\":\""
       << cluster::HostStateName(tr.from) << "\",\"to\":\""
       << cluster::HostStateName(tr.to) << "\"}\n";
  }
  for (const cluster::EvacuationRecord& rec : result.evacuation_records) {
    os << "{\"type\":\"evacuation\",\"tick\":" << rec.started
       << ",\"finished\":" << rec.finished << ",\"from_host\":" << rec.from.host
       << ",\"vm\":" << rec.from.id << ",\"to_host\":" << rec.to.host
       << ",\"attempts\":" << rec.attempts << ",\"outcome\":\""
       << cluster::EvacuationOutcomeName(rec.outcome) << "\"}\n";
  }
  for (const HandoffEvent& event : result.handoff_events) {
    os << "{\"type\":\"handoff\",\"tick\":" << event.tick
       << ",\"from_host\":" << event.from.host
       << ",\"to_host\":" << event.to.host << ",\"vm\":" << event.to.id
       << ",\"forced\":" << (event.forced ? "true" : "false")
       << ",\"warm\":" << (event.warm ? "true" : "false") << ",\"status\":\""
       << event.status << "\",\"blind_ticks\":" << event.blind_ticks << "}\n";
  }
}

}  // namespace sds::eval
