// Actuation chaos trajectory: mitigation convergence under a fallible
// control plane.
//
// Sweeps actuation fault kind x per-command fault rate over the synthetic-
// alarm chaos run (eval/actuation.h): a bus-locking attacker degrades the
// victim, an alarm fires, and the MitigationEngine has to land its response
// through an Actuator that loses, aborts or bounces commands. The output is
// a convergence curve per fault kind — settle ratio, time-to-settled,
// escalation pressure and the victim's residual degradation — plus one
// fault-free baseline cell, and a machine-readable `BENCH_actuation {json}`
// line for trend tracking across commits.
//
// This has no counterpart figure in the paper (which treats "take proper
// actions (e.g., VM migrations)" as instantaneous and infallible); it
// extends the evaluation to the operational question behind that clause:
// how unreliable can the actuation path get before the response stops
// landing at all?
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/reporter.h"
#include "eval/actuation.h"
#include "eval/scenario.h"

int main(int argc, char** argv) {
  using namespace sds;

  Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"app", "application to protect (default kmeans)"},
           {"policy", "migrate-victim | quarantine-attacker | "
                      "throttle-fallback (default migrate-victim)"},
           {"attribute", "pass the true attacker id with the alarm"},
           {"verify", "efficacy verification window in ticks (default 0)"},
           {"rates", "comma-separated fault rates (default 0.1,0.25,0.5)"},
           {"runs", "seeded runs per grid cell (default 3)"},
           {"seed", "base simulation seed (default 7100)"},
           {"json_out", "also write the BENCH_actuation JSON to this file"}})) {
    return flags.help_requested() ? 0 : 1;
  }

  eval::ActuationSweepConfig config;
  config.run.app = flags.GetChoice("app", "kmeans", eval::AppNames());
  const std::string policy = flags.GetChoice(
      "policy", "migrate-victim",
      {"migrate-victim", "quarantine-attacker", "throttle-fallback"});
  config.run.mitigation.policy =
      policy == "quarantine-attacker"
          ? cluster::MitigationPolicy::kQuarantineAttacker
      : policy == "throttle-fallback"
          ? cluster::MitigationPolicy::kThrottleFallback
          : cluster::MitigationPolicy::kMigrateVictim;
  config.run.attribute = flags.GetBool("attribute", false);
  config.run.mitigation.verify_window =
      static_cast<Tick>(flags.GetInt("verify", 0));
  const long long runs = flags.GetInt("runs", 3);
  config.runs_per_cell = static_cast<int>(runs);
  config.base_seed = static_cast<std::uint64_t>(flags.GetInt("seed", 7100));

  const auto rates = flags.GetList<double>("rates", "0.1,0.25,0.5");
  if (!rates || !bench::SweepFlagsValid(argv[0], runs, *rates)) return 1;
  config.rates = *rates;

  bench::PrintBenchHeader(
      std::cout, "bench_actuation_fault_sweep",
      "Robustness extension (no paper counterpart): mitigation convergence "
      "vs actuation fault rate, per fault kind");
  std::cout << "app=" << config.run.app << " policy="
            << cluster::MitigationPolicyName(config.run.mitigation.policy)
            << " attributed=" << (config.run.attribute ? "yes" : "no")
            << " verify_window=" << config.run.mitigation.verify_window
            << " runs/cell=" << config.runs_per_cell << "\n\n";

  const eval::ActuationSweepResult result = eval::RunActuationSweep(config);

  TextTable table;
  table.SetHeader({"fault kind", "rate", "settled", "mean settle (ticks)",
                   "max settle", "escalated", "throttled", "retries",
                   "timeouts", "residual"});
  auto row = [&table](const eval::ActuationCell& cell, const char* kind) {
    table.Row(kind, FormatFixed(cell.rate, 2),
              FormatFixed(cell.settle_ratio(), 2),
              bench::FixedOrDash(cell.mean_time_to_settled, 0),
              bench::FixedOrDash(static_cast<double>(cell.max_time_to_settled),
                                 0),
              TextTable::Str(cell.escalated_runs),
              TextTable::Str(cell.throttle_runs),
              TextTable::Str(cell.retries), TextTable::Str(cell.timeouts),
              FormatFixed(cell.mean_residual_degradation, 2));
  };
  row(result.baseline, "(baseline)");
  for (const auto& cell : result.cells) {
    row(cell, fault::ActuationFaultKindName(cell.kind));
  }
  table.Print(std::cout);

  std::cout << "\nShape check: the baseline settles at the alarm tick with "
               "zero retries; time-to-settled\nshould grow with rate while "
               "the settle ratio stays 1.0 — the throttle fallback makes\n"
               "the chain converge even when every fallible action keeps "
               "failing.\n\n";

  if (!bench::EmitBenchJson(std::cout, "actuation",
                            flags.GetString("json_out", ""),
                            [&](std::ostream& os) {
                              eval::WriteActuationJson(os, config, result);
                            })) {
    return 1;
  }
  return 0;
}
