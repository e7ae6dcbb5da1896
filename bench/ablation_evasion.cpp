// Ablation (extension beyond the paper, motivated by its future-work
// discussion of adaptive attackers): can a PULSING attacker evade SDS?
//
// The attacker runs the bus locking attack with a duty cycle: bursts of
// `on` ticks separated by `off` ticks. SDS/B needs H_C = 30 consecutive
// out-of-range EWMA values (~15 s), so bursts short enough reset the counter
// — but shorter bursts also inflict proportionally less damage. The bench
// sweeps the duty cycle and reports detection probability, detection delay
// AND the victim slowdown the attacker still achieves: the evasion-damage
// trade-off.
#include <iostream>
#include <memory>

#include "attacks/bus_lock_attacker.h"
#include "attacks/pulsing_workload.h"
#include "attacks/scheduled_workload.h"
#include "common/bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "detect/sds_detector.h"
#include "eval/experiment.h"
#include "eval/scenario.h"
#include "stats/descriptive.h"
#include "workloads/catalog.h"

namespace {

using namespace sds;

struct PulseResult {
  bool detected = false;
  double delay_seconds = 0.0;
  // Victim throughput under the pulsing attack relative to no attack.
  double victim_slowdown = 0.0;
};

PulseResult RunPulse(Tick on, Tick off, std::uint64_t seed) {
  const TickClock clock;
  detect::DetectorParams params;

  // Profile.
  eval::ScenarioConfig base;
  base.app = "kmeans";
  const auto clean = eval::CollectCleanSamples(base, 12000, seed + 1);
  const auto profile = detect::BuildSdsProfile(clean, params);

  // Deployment with a hand-built pulsing attacker.
  sim::MachineConfig mc;
  sim::Machine machine(mc);
  vm::HypervisorConfig hc;
  Rng root(seed);
  vm::Hypervisor hypervisor(machine, hc, root.Fork());
  const OwnerId victim =
      hypervisor.CreateVm("victim", workloads::MakeApp("kmeans"));
  const Tick attack_start = 10000;
  auto attacker_program = std::make_unique<attacks::PulsingWorkload>(
      std::make_unique<attacks::BusLockAttacker>(attacks::BusLockConfig{}),
      on, off, attack_start);
  hypervisor.CreateVm("attacker",
                      std::make_unique<attacks::ScheduledWorkload>(
                          std::move(attacker_program), attack_start, -1));
  for (int i = 0; i < 7; ++i) {
    hypervisor.CreateVm("benign", workloads::MakeBenignUtility());
  }

  detect::SdsDetector detector(hypervisor, victim, profile, params,
                               detect::SdsMode::kCombined);

  PulseResult result;
  const Tick total = attack_start + 30000;  // 300 s of pulsing attack
  std::uint64_t accesses_clean = 0;
  std::uint64_t accesses_attacked = 0;
  std::uint64_t baseline = 0;
  for (Tick t = 0; t < total; ++t) {
    hypervisor.RunTick();
    detector.OnTick();
    if (t + 1 == attack_start) {
      accesses_clean = machine.counters(victim).llc_accesses;
      baseline = accesses_clean;
    }
    if (!result.detected && t >= attack_start && detector.attack_active()) {
      result.detected = true;
      result.delay_seconds =
          clock.ToSeconds(hypervisor.now() - attack_start);
    }
  }
  accesses_attacked = machine.counters(victim).llc_accesses - accesses_clean;
  const double clean_rate =
      static_cast<double>(baseline) / static_cast<double>(attack_start);
  const double attacked_rate =
      static_cast<double>(accesses_attacked) / 30000.0;
  result.victim_slowdown = 1.0 - attacked_rate / clean_rate;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(argc, argv, {{"seed", "simulation seed (default 91)"}})) {
    return flags.help_requested() ? 0 : 1;
  }
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 91));

  bench::PrintBenchHeader(
      std::cout, "bench_ablation_evasion",
      "Extension: pulsing (intermittent) bus locking attack vs SDS — the "
      "evasion/damage trade-off");

  TextTable table;
  table.SetHeader({"burst on/off (s)", "duty", "detected", "delay (s)",
                   "victim slowdown"});
  struct Shape {
    Tick on;
    Tick off;
  };
  // From continuous attack down to short bursts below the H_C horizon.
  const std::vector<Shape> shapes = {
      {30000, 1}, {3000, 1000}, {2000, 2000}, {1000, 1000},
      {500, 1500}, {200, 1800},
  };
  for (const auto& s : shapes) {
    const auto r = RunPulse(s.on, s.off, seed);
    const TickClock clock;
    table.Row(FormatFixed(clock.ToSeconds(s.on), 0) + "/" +
                  FormatFixed(clock.ToSeconds(s.off), 0),
              FormatFixed(static_cast<double>(s.on) /
                              static_cast<double>(s.on + s.off),
                          2),
              r.detected ? "yes" : "NO",
              r.detected ? FormatFixed(r.delay_seconds, 1) : "-",
              FormatFixed(r.victim_slowdown * 100.0, 1) + "%");
    std::cout << "." << std::flush;
  }
  std::cout << "\n\n";
  table.Print(std::cout);
  std::cout << "\nExpected: long bursts are detected like the continuous "
               "attack; bursts well below\nH_C * dW * T_PCM = 15 s can evade "
               "SDS/B but only by sacrificing most of the damage.\n";
  return 0;
}
