// attack_playground: run any catalog application against any attack and any
// detection scheme from the command line, and dump the sampled statistics.
//
//   attack_playground --app=facenet --attack=bus-lock --seconds=120
//                     --attack-at=60 --csv   (one command line)
//
// With --csv the raw per-tick AccessNum/MissNum series is printed (one row
// per T_PCM interval) for external plotting; without it a compact summary of
// the two stages plus ASCII sparklines is shown.
#include <cstdio>
#include <iostream>
#include <string>

#include "common/csv.h"
#include "common/flags.h"
#include "common/types.h"
#include "detect/profile.h"
#include "eval/experiment.h"
#include "eval/scenario.h"
#include "stats/descriptive.h"

namespace {

sds::eval::AttackKind ParseAttack(const std::string& s) {
  if (s == "bus-lock") return sds::eval::AttackKind::kBusLock;
  if (s == "llc-cleansing") return sds::eval::AttackKind::kLlcCleansing;
  return sds::eval::AttackKind::kNone;
}

void PrintStageSummary(const char* stage,
                       const std::vector<double>& access,
                       const std::vector<double>& miss) {
  std::printf("  %-12s AccessNum mean %10.1f sd %8.1f | MissNum mean %9.1f sd %7.1f\n",
              stage, sds::Mean(access), sds::StdDev(access), sds::Mean(miss),
              sds::StdDev(miss));
}

}  // namespace

int main(int argc, char** argv) {
  sds::Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"app", "application on the victim VM (default kmeans)"},
           {"attack", "bus-lock | llc-cleansing | none (default bus-lock)"},
           {"seconds", "virtual seconds to simulate (default 120)"},
           {"attack-at", "virtual second the attack starts (default half)"},
           {"seed", "simulation seed (default 1)"},
           {"csv", "print the raw per-tick series as CSV"}})) {
    return flags.help_requested() ? 0 : 1;
  }
  const std::string app =
      flags.GetChoice("app", "kmeans", sds::eval::AppNames());
  const auto attack = ParseAttack(flags.GetChoice(
      "attack", "bus-lock", {"bus-lock", "llc-cleansing", "none"}));
  const double seconds = flags.GetDouble("seconds", 120.0);
  const double attack_at = flags.GetDouble("attack-at", seconds / 2.0);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));

  const sds::TickClock clock;
  const sds::Tick total = clock.ToTicks(seconds);
  const sds::Tick start = clock.ToTicks(attack_at);

  const auto samples =
      sds::eval::RunMeasurementStudy(app, attack, total, start, seed);
  const auto access =
      sds::detect::ChannelSeries(samples, sds::pcm::Channel::kAccessNum);
  const auto miss =
      sds::detect::ChannelSeries(samples, sds::pcm::Channel::kMissNum);

  if (flags.GetBool("csv", false)) {
    sds::CsvWriter csv(std::cout);
    csv.Row("tick", "seconds", "access_num", "miss_num");
    for (std::size_t i = 0; i < samples.size(); ++i) {
      csv.Row(static_cast<long long>(i), clock.ToSeconds(static_cast<sds::Tick>(i)),
              access[i], miss[i]);
    }
    return 0;
  }

  const auto split = static_cast<std::size_t>(start);
  const std::vector<double> access_before(access.begin(),
                                          access.begin() + static_cast<long>(split));
  const std::vector<double> access_after(access.begin() + static_cast<long>(split),
                                         access.end());
  const std::vector<double> miss_before(miss.begin(),
                                        miss.begin() + static_cast<long>(split));
  const std::vector<double> miss_after(miss.begin() + static_cast<long>(split),
                                       miss.end());

  std::printf("%s under %s (attack from t=%.0fs of %.0fs, seed %llu)\n",
              app.c_str(), sds::eval::AttackName(attack), attack_at, seconds,
              static_cast<unsigned long long>(seed));
  PrintStageSummary("no attack:", access_before, miss_before);
  if (attack != sds::eval::AttackKind::kNone) {
    PrintStageSummary("under attack:", access_after, miss_after);
    std::printf("  AccessNum change: %+.1f%%   MissNum change: %+.1f%%\n",
                100.0 * (sds::Mean(access_after) / sds::Mean(access_before) - 1.0),
                100.0 * (sds::Mean(miss_after) / sds::Mean(miss_before) - 1.0));
  }
  std::printf("  AccessNum  |%s|\n", sds::Sparkline(access, 100).c_str());
  std::printf("  MissNum    |%s|\n", sds::Sparkline(miss, 100).c_str());
  return 0;
}
