// cloud_scenario: the paper's full evaluation deployment, SDS and the
// KStest baseline side by side on the same attack timeline.
//
// One victim VM (configurable application), one attack VM, seven benign
// tenants. The run follows Section 5.1 (eval::DetectionEpisode): a clean
// stage, then the attack starts at the midpoint. Because the two detectors
// must not interfere (KStest throttles VMs), each runs in its own
// identically-seeded episode, and the example prints a merged timeline of
// their decisions.
//
//   cloud_scenario --app=terasort --attack=llc-cleansing --seconds=300
#include <cstdio>
#include <memory>
#include <algorithm>
#include <string>

#include "common/flags.h"
#include "detect/kstest_detector.h"
#include "eval/experiment.h"

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

  // Two episodes with one seed step identical worlds until KStest throttles.
  eval::DetectionRunConfig cfg;
  cfg.app = app;
  cfg.attack = attack;
  cfg.clean_ticks = total / 2;
  cfg.attack_ticks = total - cfg.clean_ticks;
  cfg.scheme = eval::Scheme::kSds;
  eval::DetectionEpisode sds_run(cfg, seed);
  cfg.scheme = eval::Scheme::kKsTest;
  eval::DetectionEpisode ks_run(cfg, seed);
  const detect::Detector& sds = sds_run.detector();
  const auto& kstest =
      dynamic_cast<const detect::KsTestDetector&>(ks_run.detector());
  const Tick attack_start = sds_run.attack_start();

  std::printf("deployment: victim=%s + attack VM (%s at t=%.0fs) + 7 benign "
              "tenants\n\n",
              app.c_str(), eval::AttackName(attack),
              clock.ToSeconds(attack_start));

  std::vector<TimelineEntry> timeline;
  timeline.push_back({clock.ToSeconds(attack_start),
                      std::string("ATTACK (") + eval::AttackName(attack) +
                          ") launched"});
  bool sds_state = false;
  bool ks_state = false;
  while (!sds_run.done()) {
    sds_run.Step();
    ks_run.Step();
    const double now =
        clock.ToSeconds(sds_run.scenario().hypervisor->now());
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
                 ks_run.scenario().hypervisor->vm(kstest.identified_attacker())
                     .name() +
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
