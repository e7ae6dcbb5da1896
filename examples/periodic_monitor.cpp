// periodic_monitor: SDS/P period tracking on a periodic application.
//
// Profiles FaceNet (or PCA), prints the profiled period, then monitors the
// live period while an LLC cleansing attack starts mid-run — showing the
// computed-period sequence deviate and the SDS/P alarm fire, exactly the
// decision path of paper Figure 8.
//
//   periodic_monitor --app=facenet --attack=llc-cleansing
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "detect/period.h"
#include "detect/profile.h"
#include "eval/experiment.h"
#include "eval/scenario.h"

int main(int argc, char** argv) {
  using namespace sds;
  Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"app", "application to protect (default facenet)"},
           {"attack", "bus-lock | llc-cleansing (default llc-cleansing)"},
           {"seconds", "virtual seconds to simulate (default 180)"},
           {"seed", "simulation seed (default 9)"}})) {
    return flags.help_requested() ? 0 : 1;
  }
  const std::string app = flags.GetChoice("app", "facenet", eval::AppNames());
  const auto attack = flags.GetChoice("attack", "llc-cleansing",
                                      {"bus-lock", "llc-cleansing"}) ==
                              "bus-lock"
                          ? eval::AttackKind::kBusLock
                          : eval::AttackKind::kLlcCleansing;
  const double seconds = flags.GetDouble("seconds", 180.0);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 9));

  const TickClock clock;
  detect::DetectorParams params;

  // Profile the period from a clean window.
  eval::ScenarioConfig base;
  base.app = app;
  const auto clean = eval::CollectCleanSamples(base, 12000, seed + 1);
  const auto profile = detect::BuildSdsProfile(clean, params);
  if (!profile.periodic()) {
    std::printf("'%s' did not classify as periodic — SDS/P does not apply "
                "(try facenet or pca)\n",
                app.c_str());
    return 1;
  }
  const detect::PeriodProfile period_profile = profile.miss_period
                                                   ? *profile.miss_period
                                                   : *profile.access_period;
  const pcm::Channel channel =
      profile.miss_period ? pcm::Channel::kMissNum : pcm::Channel::kAccessNum;
  std::printf("%s is periodic: p = %.1f MA steps (%.1fs of wall time), ACF "
              "strength %.2f, channel %s\n",
              app.c_str(), period_profile.period,
              period_profile.period * static_cast<double>(params.step) *
                  clock.tpcm_seconds(),
              period_profile.strength, pcm::ChannelName(channel));
  std::printf("monitoring with W_P = 2p, a period check every %zu MA values, "
              "alarm after %d consecutive deviations > %.0f%%\n\n",
              params.delta_wp, params.h_p, params.period_tolerance * 100);

  // Live monitoring with the attack at the midpoint.
  const Tick total = clock.ToTicks(seconds);
  const Tick attack_start = total / 2;
  const auto samples =
      eval::RunMeasurementStudy(app, attack, total, attack_start, seed);

  detect::PeriodAnalyzer analyzer(period_profile, params);
  Tick alarm_tick = kInvalidTick;
  Tick tick = 0;
  for (const auto& s : samples) {
    ++tick;
    const auto check = analyzer.Observe(pcm::SampleValue(s, channel));
    if (!check) continue;
    std::printf("  t=%6.1fs  period=%-6s %s\n",
                clock.ToSeconds(tick),
                check->period
                    ? (std::to_string(*check->period).substr(0, 4)).c_str()
                    : "none",
                check->abnormal ? "ABNORMAL" : "ok");
    if (alarm_tick == kInvalidTick && analyzer.attack_active()) {
      alarm_tick = tick;
      std::printf("  >>> SDS/P ALARM at t=%.1fs (%.1fs after the %s attack "
                  "started at t=%.1fs)\n",
                  clock.ToSeconds(tick),
                  clock.ToSeconds(tick - attack_start),
                  eval::AttackName(attack), clock.ToSeconds(attack_start));
    }
  }
  if (alarm_tick == kInvalidTick) {
    std::printf("\nno alarm raised — unexpected for this configuration\n");
    return 1;
  }
  return 0;
}
