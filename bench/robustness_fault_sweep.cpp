// Robustness trajectory: detection accuracy under a degraded monitoring
// plane.
//
// Sweeps fault kind x fault rate over the three-stage detection protocol,
// with the PCM stream routed through a deterministic FaultInjector and the
// detector protected by the degradation policies of detect/degrade.h. The
// output is a degradation curve per fault kind — recall, specificity and
// mean detection delay as the monitoring plane rots — plus one fault-free
// baseline cell, and a machine-readable `BENCH_robustness {json}` line for
// trend tracking across commits.
//
// This has no counterpart figure in the paper (which assumes perfect PCM
// reads); it extends the evaluation to the operational question a deployer
// would ask first: how bad can the monitoring plane get before SDS stops
// earning its keep?
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/reporter.h"
#include "eval/robustness.h"
#include "eval/scenario.h"

int main(int argc, char** argv) {
  using namespace sds;

  Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"app", "application to protect (default kmeans)"},
           {"attack", "bus-lock | llc-cleansing (default bus-lock)"},
           {"scheme", "SDS | SDS/B | KStest (default SDS)"},
           {"policy", "gap policy: hold-last | skip-freeze | rewarm "
                      "(default hold-last)"},
           {"rates", "comma-separated fault rates (default 0.01,0.05,0.2)"},
           {"runs", "seeded runs per grid cell (default 3)"},
           {"seed", "base simulation seed (default 9000)"},
           {"smoke", "tiny stages + 1 run per cell: CI smoke test"},
           {"json_out", "also write the BENCH_robustness JSON to this file"}})) {
    return flags.help_requested() ? 0 : 1;
  }

  eval::RobustnessSweepConfig config;
  config.run.app = flags.GetChoice("app", "kmeans", eval::AppNames());
  const std::string attack =
      flags.GetChoice("attack", "bus-lock", {"bus-lock", "llc-cleansing"});
  config.run.attack = attack == "llc-cleansing"
                          ? eval::AttackKind::kLlcCleansing
                          : eval::AttackKind::kBusLock;
  const std::string scheme =
      flags.GetChoice("scheme", "SDS", {"SDS", "SDS/B", "KStest"});
  config.run.scheme = scheme == "KStest" ? eval::Scheme::kKsTest
                      : scheme == "SDS/B" ? eval::Scheme::kSdsB
                                          : eval::Scheme::kSds;
  const std::string policy = flags.GetChoice(
      "policy", "hold-last", {"hold-last", "skip-freeze", "rewarm"});
  config.degrade.gap_policy = policy == "skip-freeze"
                                  ? detect::GapPolicy::kSkipFreeze
                              : policy == "rewarm" ? detect::GapPolicy::kRewarm
                                                   : detect::GapPolicy::kHoldLast;
  const long long runs = flags.GetInt("runs", 3);
  config.runs_per_cell = static_cast<int>(runs);
  config.base_seed = static_cast<std::uint64_t>(flags.GetInt("seed", 9000));

  const auto rates = flags.GetList<double>("rates", "0.01,0.05,0.2");
  if (!rates || !bench::SweepFlagsValid(argv[0], runs, *rates)) return 1;
  config.rates = *rates;

  if (flags.GetBool("smoke", false)) {
    // CI-sized: one run per cell, short stages, two rates. Still covers
    // every fault kind and both alarm-bearing stages.
    config.runs_per_cell = 1;
    config.run.profile_ticks = 3000;
    config.run.clean_ticks = 4000;
    config.run.attack_ticks = 4000;
    config.rates = {0.05, 0.2};
  }

  bench::PrintBenchHeader(
      std::cout, "bench_robustness_fault_sweep",
      "Robustness extension (no paper counterpart): recall / specificity / "
      "delay vs monitoring-plane fault rate, per fault kind");
  std::cout << "app=" << config.run.app
            << " attack=" << eval::AttackName(config.run.attack)
            << " scheme=" << eval::SchemeName(config.run.scheme)
            << " policy=" << detect::GapPolicyName(config.degrade.gap_policy)
            << " runs/cell=" << config.runs_per_cell << "\n\n";

  const eval::RobustnessSweepResult result = eval::RunRobustnessSweep(config);

  TextTable table;
  table.SetHeader({"fault kind", "rate", "recall", "specificity",
                   "mean delay (ticks)", "gap ticks", "quarantined",
                   "restarts"});
  auto row = [&table](const eval::RobustnessCell& cell, const char* kind) {
    table.Row(kind, FormatFixed(cell.rate, 2), FormatFixed(cell.recall(), 2),
              FormatFixed(cell.specificity(), 3),
              bench::FixedOrDash(cell.mean_delay_ticks, 0),
              TextTable::Str(cell.counters.degrade.gap_ticks),
              TextTable::Str(cell.counters.degrade.quarantined),
              TextTable::Str(cell.counters.degrade.watchdog_restarts));
  };
  row(result.baseline, "(baseline)");
  for (const auto& cell : result.cells) {
    row(cell, fault::FaultKindName(cell.kind));
  }
  table.Print(std::cout);

  std::cout << "\nShape check: the baseline matches the fault-free accuracy "
               "protocol; recall should\ndegrade gracefully (not cliff) with "
               "rate, and specificity should stay near 1.0 for\nloss-type "
               "faults while corruption stresses the quarantine gate.\n\n";

  if (!bench::EmitBenchJson(std::cout, "robustness",
                            flags.GetString("json_out", ""),
                            [&](std::ostream& os) {
                              eval::WriteRobustnessJson(os, config, result);
                            })) {
    return 1;
  }
  return 0;
}
