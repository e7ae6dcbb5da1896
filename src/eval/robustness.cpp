#include "eval/robustness.h"

#include <ostream>
#include <span>

#include "eval/aggregate.h"

namespace sds::eval {

void RobustnessCounters::Accumulate(const RobustnessCounters& other) {
  for (std::size_t k = 0; k < fault::kFaultKindCount; ++k) {
    fault.injected[k] += other.fault.injected[k];
  }
  fault.missing_ticks += other.fault.missing_ticks;
  fault.tampered_samples += other.fault.tampered_samples;
  fault.restart_attempts += other.fault.restart_attempts;
  fault.restarts_denied += other.fault.restarts_denied;
  fault.restarts += other.fault.restarts;

  degrade.delivered += other.degrade.delivered;
  degrade.gap_ticks += other.degrade.gap_ticks;
  degrade.quarantined += other.degrade.quarantined;
  degrade.substituted += other.degrade.substituted;
  degrade.rewarms += other.degrade.rewarms;
  degrade.watchdog_attempts += other.degrade.watchdog_attempts;
  degrade.watchdog_restarts += other.degrade.watchdog_restarts;

  ks_abandoned_collections += other.ks_abandoned_collections;
}

namespace {

// Seed of every fault plan in the sweep, varied per run below so fault
// schedules differ across repeat runs of a cell.
constexpr std::uint64_t kFaultSeed = 0xf5eedull;

struct FaultedRun {
  DetectionRunResult result;
  RobustnessCounters counters;
};

// Folds one grid cell's runs, in run order.
RobustnessCell FoldCell(const FaultCell<fault::FaultKind>& grid_cell,
                        std::span<const FaultedRun> runs) {
  RobustnessCell cell;
  cell.kind = grid_cell.kind;
  cell.rate = grid_cell.rate;
  double delay_sum = 0.0;
  for (const FaultedRun& run : runs) {
    const DetectionRunResult& res = run.result;
    ++cell.runs;
    if (res.detected) {
      ++cell.detected_runs;
      delay_sum += static_cast<double>(res.detection_delay_ticks.value_or(0));
    }
    cell.true_negative_intervals += res.true_negative_intervals;
    cell.false_positive_intervals += res.false_positive_intervals;
    cell.counters.Accumulate(run.counters);
  }
  if (cell.detected_runs > 0) {
    cell.mean_delay_ticks = delay_sum / cell.detected_runs;
  }
  return cell;
}

void WriteCellJson(std::ostream& os, const RobustnessCell& cell,
                   const char* kind_name) {
  os << "{\"kind\":\"" << kind_name << "\",\"rate\":" << cell.rate
     << ",\"runs\":" << cell.runs
     << ",\"detected_runs\":" << cell.detected_runs
     << ",\"recall\":" << cell.recall()
     << ",\"specificity\":" << cell.specificity()
     << ",\"mean_delay_ticks\":" << cell.mean_delay_ticks
     << ",\"false_positive_intervals\":" << cell.false_positive_intervals
     << ",\"injected\":" << cell.counters.fault.injected_total()
     << ",\"missing_ticks\":" << cell.counters.fault.missing_ticks
     << ",\"gap_ticks\":" << cell.counters.degrade.gap_ticks
     << ",\"quarantined\":" << cell.counters.degrade.quarantined
     << ",\"substituted\":" << cell.counters.degrade.substituted
     << ",\"rewarms\":" << cell.counters.degrade.rewarms
     << ",\"watchdog_restarts\":" << cell.counters.degrade.watchdog_restarts
     << ",\"ks_abandoned\":" << cell.counters.ks_abandoned_collections << "}";
}

}  // namespace

RobustnessSweepResult RunRobustnessSweep(const RobustnessSweepConfig& config) {
  // The baseline cell keeps the full injector + gate machinery in the path
  // with a zero-rate plan. Bit-transparent by the golden invariant, so it
  // equals the plain RunDetectionRun numbers while exercising the same code
  // path the faulted cells use.
  const auto grid = FaultGrid(config.kinds, config.rates);
  const std::vector<FaultedRun> runs = RunGrid(
      grid.size(), config.runs_per_cell, DefaultThreads(),
      [&](std::size_t c, std::size_t r) {
        RobustnessRunConfig robust;
        // Vary the fault schedule with the run while keeping it a pure
        // function of the run index.
        robust.plan = fault::FaultPlan::Single(
            grid[c].kind, grid[c].rate,
            kFaultSeed + std::uint64_t{0x9e3779b97f4a7c15} * (r + 1));
        robust.degrade = config.degrade;
        FaultedRun run;
        run.result = RunDetectionRunFaulted(config.run, config.base_seed + r,
                                            robust, &run.counters);
        return run;
      });

  const auto per_cell = static_cast<std::size_t>(config.runs_per_cell);
  const std::span<const FaultedRun> all(runs);
  RobustnessSweepResult result;
  result.baseline = FoldCell(grid[0], all.first(per_cell));
  for (std::size_t c = 1; c < grid.size(); ++c) {
    result.cells.push_back(
        FoldCell(grid[c], all.subspan(c * per_cell, per_cell)));
  }
  return result;
}

void WriteRobustnessJson(std::ostream& os, const RobustnessSweepConfig& config,
                         const RobustnessSweepResult& result) {
  os << "{\"bench\":\"robustness\",\"app\":\"" << config.run.app
     << "\",\"attack\":\"" << AttackName(config.run.attack)
     << "\",\"scheme\":\"" << SchemeName(config.run.scheme)
     << "\",\"gap_policy\":\""
     << detect::GapPolicyName(config.degrade.gap_policy)
     << "\",\"runs_per_cell\":" << config.runs_per_cell
     << ",\"clean_ticks\":" << config.run.clean_ticks
     << ",\"attack_ticks\":" << config.run.attack_ticks << ",\"baseline\":";
  WriteCellJson(os, result.baseline, "none");
  os << ",\"cells\":[";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    if (i > 0) os << ",";
    WriteCellJson(os, result.cells[i],
                  fault::FaultKindName(result.cells[i].kind));
  }
  os << "]}";
}

}  // namespace sds::eval
