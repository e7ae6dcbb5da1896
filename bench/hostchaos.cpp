// Host-chaos trajectory: blind windows, evacuation convergence, and the
// warm detector-state handoff win (DESIGN.md §17).
//
// Sweeps two cell families over the host-chaos run (eval/hostchaos.h),
// each cell executed twice on identical seeds — once with warm detector
// handoff, once cold:
//
//   * forced-migration periods — the "attacker-induced mitigation" evasion
//     cell: with cold handoff every migration resets the analyzer windows,
//     so an attacker that keeps triggering mitigations is never caught;
//   * host crash rates — hosts die and the evacuation engine re-places
//     their VMs through the actuator while the detector follows the victim.
//
// Output: per-cell warm-vs-cold blind-window ticks and missed-alarm rate,
// evacuation convergence counters, and a machine-readable
// `BENCH_hostchaos {json}` line. The binary FAILS (exit 1) unless warm is
// strictly below cold on both metrics in every cell — the acceptance
// criterion of the handoff subsystem, enforced by its `ctest -L sweeps` pin.
//
// No counterpart figure in the paper, which treats migration as free and
// instantaneous; this extends the evaluation to what migration costs the
// detector and how that cost is eliminated.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/reporter.h"
#include "eval/hostchaos.h"
#include "eval/scenario.h"

int main(int argc, char** argv) {
  using namespace sds;

  Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"app", "application to protect (default kmeans)"},
           {"periods",
            "comma-separated forced-migration periods in ticks "
            "(default 800,1600,3200)"},
           {"rates",
            "comma-separated per-host-tick crash rates "
            "(default 0.0003,0.0006,0.0012)"},
           {"runs", "seeded runs per cell side (default 2)"},
           {"seed", "base simulation seed (default 9100)"},
           {"json_out", "also write the BENCH_hostchaos JSON to this file"},
           {"trace_out",
            "write one warm + one cold chaos-run JSONL trace for "
            "tools/inspect --hostchaos"}})) {
    return flags.help_requested() ? 0 : 1;
  }

  eval::HostChaosSweepConfig config;
  config.run.app = flags.GetChoice("app", "kmeans", eval::AppNames());
  const long long runs = flags.GetInt("runs", 2);
  config.runs_per_cell = static_cast<int>(runs);
  config.base_seed = static_cast<std::uint64_t>(flags.GetInt("seed", 9100));

  const auto periods = flags.GetList<Tick>("periods", "800,1600,3200");
  const auto rates = flags.GetList<double>("rates", "0.0003,0.0006,0.0012");
  if (!periods || !rates ||
      !bench::SweepFlagsValid(argv[0], runs, *rates)) {
    return 1;
  }
  config.migration_periods = *periods;
  config.crash_rates = *rates;

  bench::PrintBenchHeader(
      std::cout, "bench_hostchaos",
      "Robustness extension (no paper counterpart): blind windows and "
      "missed alarms across migrations, warm vs cold detector handoff");
  std::cout << "app=" << config.run.app << " hosts=" << config.run.hosts
            << " horizon=" << config.run.horizon
            << " attack_start=" << config.run.attack_start
            << " runs/cell=" << config.runs_per_cell << "\n\n";

  const eval::HostChaosSweepResult result = eval::RunHostChaosSweep(config);

  TextTable table;
  table.SetHeader({"cell", "migrations", "blind warm", "blind cold",
                   "missed warm", "missed cold", "evac ok", "throttled",
                   "down ticks"});
  const auto row = [&table](const std::string& name,
                            const eval::HostChaosCell& cell) {
    table.Row(name, TextTable::Str(cell.warm.migrations),
              FormatFixed(cell.warm.mean_blind_ticks, 1),
              FormatFixed(cell.cold.mean_blind_ticks, 1),
              FormatFixed(cell.warm.missed_alarm_rate, 3),
              FormatFixed(cell.cold.missed_alarm_rate, 3),
              TextTable::Str(cell.warm.evac_migrated),
              TextTable::Str(cell.warm.evac_throttled),
              TextTable::Str(cell.warm.down_ticks));
  };
  for (const auto& cell : result.migration_cells) {
    row("period " + std::to_string(cell.migrate_every), cell);
  }
  for (const auto& cell : result.chaos_cells) {
    std::ostringstream name;
    name << "crash " << cell.crash_rate;
    row(name.str(), cell);
  }
  table.Print(std::cout);

  std::cout << "\nShape check: warm blind windows and missed-alarm rates sit "
               "strictly below cold in\nevery cell; cold misses grow as the "
               "forced-migration period shrinks below the\ndetection delay "
               "(the evasion window the handoff closes).\n\n";

  const std::string trace_out = flags.GetString("trace_out", "");
  if (!trace_out.empty()) {
    // One warm + one cold run of the first chaos cell (same seeds), so
    // tools/inspect can show the host timeline, evacuations and both handoff
    // modes side by side.
    eval::HostChaosRunConfig run = eval::ChaosCellRun(
        config, config.crash_rates.empty() ? 0.0 : config.crash_rates.front());
    run.host_plan.seed = eval::kHostChaosFaultSeed;
    std::ofstream trace(trace_out);
    if (!trace) {
      std::cerr << "cannot write trace file: " << trace_out << "\n";
      return 1;
    }
    for (const bool warm : {true, false}) {
      run.warm_handoff = warm;
      const eval::HostChaosRunResult res =
          eval::RunHostChaosRun(run, config.base_seed);
      eval::WriteHostChaosTrace(trace, run, res);
    }
    std::cout << "wrote hostchaos trace to " << trace_out << "\n";
  }

  if (!bench::EmitBenchJson(std::cout, "hostchaos",
                            flags.GetString("json_out", ""),
                            [&](std::ostream& os) {
                              eval::WriteHostChaosJson(os, config, result);
                            })) {
    return 1;
  }

  if (!result.warm_strictly_better) {
    std::cerr << "FAIL: warm handoff did not strictly beat cold in every "
                 "cell\n";
    return 1;
  }
  return 0;
}
