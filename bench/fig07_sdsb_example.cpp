// Figure 7: SDS/B detection walk-through on k-means.
//
// Shows the monitored EWMA time series against the profiled normal range
// [mu_E - k sigma_E, mu_E + k sigma_E]: before the attack the EWMA dips out
// of range occasionally but never H_C times in a row; after the bus locking
// attack starts, violations accumulate and the alarm fires.
#include <iostream>

#include "common/bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "detect/boundary.h"
#include "detect/profile.h"
#include "eval/experiment.h"
#include "eval/scenario.h"

int main(int argc, char** argv) {
  using namespace sds;
  Flags flags;
  if (!flags.Parse(argc, argv,
                   {{"app", "application to protect (default kmeans)"},
                    {"seed", "simulation seed (default 11)"},
                    {"csv", "also print the series as CSV"}})) {
    return flags.help_requested() ? 0 : 1;
  }
  const std::string app = flags.GetChoice("app", "kmeans", eval::AppNames());
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 11));

  bench::PrintBenchHeader(
      std::cout, "bench_fig07_sdsb_example",
      "Figure 7: k-means EWMA time series vs the SDS/B normal range, bus "
      "locking attack");

  const detect::DetectorParams params;
  const TickClock clock;

  // Stage 1: profile.
  eval::ScenarioConfig base;
  base.app = app;
  const auto clean = eval::CollectCleanSamples(base, 12000, seed + 1);
  const auto profile = detect::BuildBoundaryProfile(
      detect::ChannelSeries(clean, pcm::Channel::kAccessNum), params);

  // Monitored run: 75 s clean + 75 s bus-locked.
  const Tick stage = clock.ToTicks(75.0);
  const auto samples = eval::RunMeasurementStudy(
      app, eval::AttackKind::kBusLock, 2 * stage, stage, seed);

  detect::BoundaryAnalyzer analyzer(profile, params);
  std::vector<double> ewma;
  Tick alarm_tick = kInvalidTick;
  Tick tick = 0;
  for (const auto& s : samples) {
    ++tick;
    if (const auto v =
            analyzer.Observe(static_cast<double>(s.access_num))) {
      ewma.push_back(*v);
      if (alarm_tick == kInvalidTick && analyzer.attack_active()) {
        alarm_tick = tick;
      }
    }
  }

  std::cout << "profile: mu_E = " << FormatFixed(profile.mean, 1)
            << ", sigma_E = " << FormatFixed(profile.stddev, 1)
            << ", normal range = [" << FormatFixed(analyzer.lower_bound(), 1)
            << ", " << FormatFixed(analyzer.upper_bound(), 1) << "]\n";
  std::cout << "attack starts at EWMA window "
            << (stage - static_cast<Tick>(params.window)) / static_cast<Tick>(params.step)
            << " (t=" << clock.ToSeconds(stage) << "s)\n";
  std::cout << "EWMA series (window index left to right):\n  |"
            << Sparkline(ewma, 100) << "|\n";
  if (alarm_tick != kInvalidTick) {
    std::cout << "ALARM raised at t=" << clock.ToSeconds(alarm_tick)
              << "s — " << FormatFixed(clock.ToSeconds(alarm_tick - stage), 1)
              << "s after attack launch (paper: alarm around window 150, "
                 "i.e. ~15-20 s after launch)\n";
  } else {
    std::cout << "no alarm raised (unexpected — check calibration)\n";
  }

  if (flags.GetBool("csv", false)) {
    std::cout << "\nwindow,ewma,lower,upper\n";
    CsvWriter csv(std::cout);
    for (std::size_t i = 0; i < ewma.size(); ++i) {
      csv.Row(static_cast<long long>(i), ewma[i], analyzer.lower_bound(),
              analyzer.upper_bound());
    }
  }
  return 0;
}
