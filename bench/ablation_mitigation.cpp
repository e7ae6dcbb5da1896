// Ablation (extension, paper Section 6): the full detect -> respond pipeline.
//
// A victim and a bus-locking attacker share host 0 of a two-host cluster;
// host 1 is spare. SDS watches the victim; on its first alarm the mitigation
// engine applies a policy. The bench reports the victim's throughput in
// three windows — before the attack, under the attack, and after mitigation
// — for each policy, demonstrating why detection (rather than blind
// migration) is the actionable primitive.
#include <iostream>
#include <memory>

#include "attacks/bus_lock_attacker.h"
#include "attacks/scheduled_workload.h"
#include "cluster/mitigation.h"
#include "common/bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "detect/sds_detector.h"
#include "eval/experiment.h"
#include "workloads/catalog.h"

namespace {

using namespace sds;

struct PipelineResult {
  double rate_clean = 0.0;
  double rate_attacked = 0.0;
  double rate_after = 0.0;
  double detect_delay_s = -1.0;
  cluster::MitigationPolicy applied = cluster::MitigationPolicy::kNone;
};

PipelineResult RunPipeline(cluster::MitigationPolicy policy,
                           std::uint64_t seed) {
  const TickClock clock;
  detect::DetectorParams params;

  eval::ScenarioConfig base;
  base.app = "kmeans";
  const auto clean_samples = eval::CollectCleanSamples(base, 12000, seed + 1);
  const auto profile = detect::BuildSdsProfile(clean_samples, params);

  cluster::Cluster cl(2, cluster::HostConfig{}, seed);
  const Tick attack_start = 6000;
  const cluster::VmRef victim =
      cl.Deploy(0, "victim", [] { return workloads::MakeApp("kmeans"); });
  const cluster::VmRef attacker = cl.Deploy(0, "attacker", [attack_start] {
    return std::make_unique<attacks::ScheduledWorkload>(
        std::make_unique<attacks::BusLockAttacker>(attacks::BusLockConfig{}),
        attack_start, -1);
  });
  for (int i = 0; i < 7; ++i) {
    cl.Deploy(0, "benign", [] { return workloads::MakeBenignUtility(); });
  }

  detect::SdsDetector detector(cl.hypervisor(0), victim.id, profile, params,
                               detect::SdsMode::kCombined);
  cluster::MitigationEngine engine(cl, victim,
                                   {.policy = policy, .spare_host = 1});

  PipelineResult result;
  std::uint64_t mark = 0;
  auto rate_since = [&](const cluster::VmRef& placement, Tick ticks) {
    const auto now = cl.counters(placement).llc_accesses;
    const double rate = static_cast<double>(now - mark) /
                        static_cast<double>(ticks);
    mark = now;
    return rate;
  };

  // Clean window.
  for (Tick t = 0; t < attack_start; ++t) {
    cl.RunTick();
    detector.OnTick();
  }
  result.rate_clean = rate_since(victim, attack_start) *
                      static_cast<double>(attack_start) /
                      static_cast<double>(attack_start);

  // Attack until detection (cap at 60 s).
  Tick attacked_ticks = 0;
  const Tick detect_cap = 6000;
  while (attacked_ticks < detect_cap) {
    cl.RunTick();
    detector.OnTick();
    ++attacked_ticks;
    if (detector.attack_active()) break;
  }
  result.rate_attacked = rate_since(victim, attacked_ticks);
  if (detector.attack_active()) {
    result.detect_delay_s = clock.ToSeconds(attacked_ticks);
    // SDS does not attribute; pass 0 (the quarantine policy falls back to
    // migration). A provider running KStest-style identification would pass
    // the culprit here — model that with the true attacker id for the
    // quarantine policy to show its effect.
    engine.OnAlarm(policy == cluster::MitigationPolicy::kQuarantineAttacker
                       ? attacker.id
                       : 0);
  }
  result.applied = engine.applied_policy();

  // Recovery window at the victim's (possibly new) placement.
  const cluster::VmRef placement = engine.victim();
  mark = cl.counters(placement).llc_accesses;
  const Tick recovery = 6000;
  for (Tick t = 0; t < recovery; ++t) cl.RunTick();
  result.rate_after = rate_since(placement, recovery);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(argc, argv, {{"seed", "simulation seed (default 101)"}})) {
    return flags.help_requested() ? 0 : 1;
  }
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 101));

  bench::PrintBenchHeader(
      std::cout, "bench_ablation_mitigation",
      "Extension (paper Section 6): detection-triggered mitigation — "
      "victim throughput before / under / after the response");

  TextTable table;
  table.SetHeader({"policy", "applied", "delay (s)", "clean rate",
                   "attacked rate", "post-mitigation rate", "recovered"});
  for (auto policy : {cluster::MitigationPolicy::kNone,
                      cluster::MitigationPolicy::kMigrateVictim,
                      cluster::MitigationPolicy::kQuarantineAttacker}) {
    const auto r = RunPipeline(policy, seed);
    const double recovered = r.rate_after / r.rate_clean;
    table.Row(cluster::MitigationPolicyName(policy),
              cluster::MitigationPolicyName(r.applied),
              r.detect_delay_s >= 0 ? FormatFixed(r.detect_delay_s, 1) : "-",
              FormatFixed(r.rate_clean, 0), FormatFixed(r.rate_attacked, 0),
              FormatFixed(r.rate_after, 0),
              FormatFixed(recovered * 100.0, 0) + "%");
    std::cout << "." << std::flush;
  }
  std::cout << "\n\n";
  table.Print(std::cout);
  std::cout << "\nExpected: without a response the victim stays degraded; "
               "both migration and quarantine\nrestore ~100% of the clean "
               "throughput within the recovery window.\n";
  return 0;
}
