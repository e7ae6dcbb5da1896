// cloud_scenario: the paper's full evaluation deployment, SDS and the
// KStest baseline side by side on the same attack timeline.
//
// One victim VM (configurable application), one attack VM, seven benign
// tenants. The run follows Section 5.1: a clean stage, then the attack
// starts at the midpoint. Because the two detectors must not interfere
// (KStest throttles VMs), each runs in its own identically-seeded scenario,
// and the example prints a merged timeline of their decisions.
//
//   cloud_scenario --app=terasort --attack=llc-cleansing --seconds=300
#include <cstdio>
#include <memory>
#include <algorithm>
#include <string>

#include "common/flags.h"
#include "detect/kstest_detector.h"
#include "detect/sds_detector.h"
#include "eval/experiment.h"
#include "eval/scenario.h"

namespace {

using namespace sds;

struct TimelineEntry {
  double t = 0.0;
  std::string event;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"app", "application to protect (default terasort)"},
           {"attack", "bus-lock | llc-cleansing (default bus-lock)"},
           {"seconds", "virtual seconds to simulate (default 240)"},
           {"seed", "simulation seed (default 5)"}})) {
    return flags.help_requested() ? 0 : 1;
  }
  const std::string app = flags.GetChoice("app", "terasort", eval::AppNames());
  const auto attack =
      flags.GetChoice("attack", "bus-lock", {"bus-lock", "llc-cleansing"}) ==
              "llc-cleansing"
          ? eval::AttackKind::kLlcCleansing
          : eval::AttackKind::kBusLock;
  const double seconds = flags.GetDouble("seconds", 240.0);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 5));

  const TickClock clock;
  const Tick total = clock.ToTicks(seconds);
  const Tick attack_start = total / 2;

  std::printf("deployment: victim=%s + attack VM (%s at t=%.0fs) + 7 benign "
              "tenants\n\n",
              app.c_str(), eval::AttackName(attack),
              clock.ToSeconds(attack_start));

  // Profile for SDS.
  eval::ScenarioConfig base;
  base.app = app;
  detect::DetectorParams params;
  const auto clean = eval::CollectCleanSamples(base, 12000, seed + 1);
  const auto profile = detect::BuildSdsProfile(clean, params);

  // Two identically-seeded worlds, one per detector.
  eval::ScenarioConfig cfg;
  cfg.app = app;
  cfg.attack = attack;
  cfg.attack_start = attack_start;
  cfg.seed = seed;
  eval::Scenario world_sds = eval::BuildScenario(cfg);
  eval::Scenario world_ks = eval::BuildScenario(cfg);

  detect::SdsDetector sds(*world_sds.hypervisor, world_sds.victim, profile,
                          params, detect::SdsMode::kCombined);
  detect::KsTestParams ks_params;
  detect::KsTestDetector kstest(*world_ks.hypervisor, world_ks.victim,
                                ks_params);

  std::vector<TimelineEntry> timeline;
  timeline.push_back({clock.ToSeconds(attack_start),
                      std::string("ATTACK (") + eval::AttackName(attack) +
                          ") launched"});
  bool sds_state = false;
  bool ks_state = false;
  for (Tick t = 0; t < total; ++t) {
    world_sds.hypervisor->RunTick();
    sds.OnTick();
    world_ks.hypervisor->RunTick();
    kstest.OnTick();
    const double now = clock.ToSeconds(world_sds.hypervisor->now());
    if (sds.attack_active() != sds_state) {
      sds_state = sds.attack_active();
      timeline.push_back({now, sds_state ? "SDS: alarm RAISED"
                                         : "SDS: alarm cleared"});
    }
    if (kstest.attack_active() != ks_state) {
      ks_state = kstest.attack_active();
      std::string event = ks_state ? "KStest: alarm RAISED" : "KStest: alarm cleared";
      if (ks_state && kstest.identified_attacker() != 0) {
        event += " (identified VM " +
                 std::to_string(kstest.identified_attacker()) + ", '" +
                 world_ks.hypervisor->vm(kstest.identified_attacker()).name() +
                 "')";
      }
      timeline.push_back({now, event});
    }
  }

  std::sort(timeline.begin(), timeline.end(),
            [](const TimelineEntry& a, const TimelineEntry& b) {
              return a.t < b.t;
            });
  std::printf("timeline:\n");
  for (const auto& e : timeline) {
    const bool pre_attack = e.t < clock.ToSeconds(attack_start);
    std::printf("  t=%7.1fs  %s%s\n", e.t, e.event.c_str(),
                pre_attack && e.event.find("RAISED") != std::string::npos
                    ? "   <-- false positive"
                    : "");
  }
  std::printf(
      "\nthrottling performed by KStest: %llu sweeps; reference refreshes "
      "pause all co-located VMs for 1s every 30s.\n",
      static_cast<unsigned long long>(kstest.identification_sweeps()));
  return 0;
}
