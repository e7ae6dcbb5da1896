// Figure 8: SDS/P detection walk-through on FaceNet.
//
// Part (a): the MA time series of the periodic application; part (b): the
// sequence of periods computed by DFT-ACF over the sliding W_P window. The
// period sits near its profiled value (~17 MA steps) until the attack; it
// then deviates (or disappears) on H_P consecutive checks and the alarm
// fires.
#include <iostream>

#include "common/bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "detect/period.h"
#include "detect/profile.h"
#include "eval/experiment.h"
#include "eval/scenario.h"
#include "signal/moving_average.h"

int main(int argc, char** argv) {
  using namespace sds;
  Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"app", "application to protect (default facenet)"},
           {"attack", "bus-lock | llc-cleansing (default bus-lock)"},
           {"seed", "simulation seed (default 13)"}})) {
    return flags.help_requested() ? 0 : 1;
  }
  const std::string app = flags.GetChoice("app", "facenet", eval::AppNames());
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 13));
  const auto attack =
      flags.GetChoice("attack", "bus-lock", {"bus-lock", "llc-cleansing"}) ==
              "llc-cleansing"
          ? eval::AttackKind::kLlcCleansing
          : eval::AttackKind::kBusLock;

  bench::PrintBenchHeader(
      std::cout, "bench_fig08_sdsp_example",
      "Figure 8: FaceNet MA time series (a) and the real-time computed "
      "period sequence (b)");

  const detect::DetectorParams params;
  const TickClock clock;

  // Stage 1: profile the period.
  eval::ScenarioConfig base;
  base.app = app;
  const auto clean = eval::CollectCleanSamples(base, 12000, seed + 1);
  const auto access_profile = detect::ClassifyPeriodicity(
      detect::ChannelSeries(clean, pcm::Channel::kMissNum), params);
  if (!access_profile) {
    std::cout << "application did not classify as periodic; aborting\n";
    return 1;
  }
  std::cout << "profiled period p = " << FormatFixed(access_profile->period, 1)
            << " MA steps (" << FormatFixed(access_profile->period *
                                                static_cast<double>(params.step) *
                                                clock.tpcm_seconds(),
                                            1)
            << " s), strength " << FormatFixed(access_profile->strength, 2)
            << "; W_P = 2p, dW_P = " << params.delta_wp
            << ", H_P = " << params.h_p << "\n\n";

  // Monitored run: 90 s clean + 90 s attacked.
  const Tick stage = clock.ToTicks(90.0);
  const auto samples =
      eval::RunMeasurementStudy(app, attack, 2 * stage, stage, seed);
  const auto miss = detect::ChannelSeries(samples, pcm::Channel::kMissNum);

  detect::PeriodAnalyzer analyzer(*access_profile, params);
  std::vector<double> ma_series;
  Tick alarm_tick = kInvalidTick;
  {
    SlidingWindowAverage ma(params.window, params.step);
    Tick tick = 0;
    for (double v : miss) {
      ++tick;
      if (const auto m = ma.Push(v)) ma_series.push_back(*m);
      analyzer.Observe(v);
      if (alarm_tick == kInvalidTick && analyzer.attack_active()) {
        alarm_tick = tick;
      }
    }
  }

  std::cout << "(a) MA time series (attack at t=" << clock.ToSeconds(stage)
            << "s):\n  |" << Sparkline(ma_series, 100) << "|\n\n";

  std::cout << "(b) computed period at each check (MA steps; '-' = no "
               "period found):\n    ";
  for (const auto& check : analyzer.checks()) {
    if (check.period) {
      std::cout << FormatFixed(*check.period, 0);
    } else {
      std::cout << '-';
    }
    std::cout << (check.abnormal ? "! " : "  ");
  }
  std::cout << "\n    ('!' marks checks deviating >20% from the profile)\n\n";

  if (alarm_tick != kInvalidTick) {
    std::cout << "ALARM raised at t=" << clock.ToSeconds(alarm_tick) << "s — "
              << FormatFixed(clock.ToSeconds(alarm_tick - stage), 1)
              << "s after attack launch (paper: 5 consecutive deviations "
                 "trigger the alarm)\n";
  } else {
    std::cout << "no alarm raised (unexpected — check calibration)\n";
  }
  return 0;
}
