// Figures 2-6: the Section 3.3 measurement study.
//
// For every application and both attacks, runs the 120-second protocol
// (attack launched at the 60 s midpoint) and reports the stage means, the
// relative change, and an ASCII rendering of the time series — the textual
// analogue of the figures' before/after plots. The periodic applications
// (PCA, FaceNet) additionally report their measured period in both stages
// (the Observation 2 stretch).
#include <iostream>

#include "common/bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "detect/profile.h"
#include "eval/experiment.h"
#include "signal/moving_average.h"
#include "signal/period_detect.h"
#include "stats/descriptive.h"
#include "workloads/catalog.h"

namespace {

using namespace sds;

struct StageStats {
  double mean_before = 0.0;
  double mean_after = 0.0;
  double change() const { return mean_after / mean_before - 1.0; }
};

StageStats Split(const std::vector<double>& series, std::size_t at) {
  StageStats s;
  const std::vector<double> before(series.begin(),
                                   series.begin() + static_cast<long>(at));
  const std::vector<double> after(series.begin() + static_cast<long>(at),
                                  series.end());
  s.mean_before = Mean(before);
  s.mean_after = Mean(after);
  return s;
}

std::string PeriodString(const std::vector<double>& series, std::size_t from,
                         std::size_t to) {
  detect::DetectorParams params;
  const std::vector<double> slice(series.begin() + static_cast<long>(from),
                                  series.begin() + static_cast<long>(to));
  const auto ma = MovingAverageSeries(slice, params.window, params.step);
  const auto est = DetectPeriod(ma);
  if (!est) return "none";
  return FormatFixed(est->period, 1) + " MA steps";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(argc, argv,
                   {{"seconds", "virtual seconds per run (default 120)"},
                    {"seed", "simulation seed (default 33)"}})) {
    return flags.help_requested() ? 0 : 1;
  }
  const double seconds = flags.GetDouble("seconds", 120.0);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 33));

  bench::PrintBenchHeader(
      std::cout, "bench_fig02_06_measurement",
      "Figures 2-6: AccessNum under the bus locking attack and MissNum "
      "under the LLC cleansing attack, per application, attack at the "
      "midpoint");

  const TickClock clock;
  const Tick total = clock.ToTicks(seconds);
  const Tick mid = total / 2;

  TextTable summary;
  summary.SetHeader({"application", "figure", "attack", "statistic",
                     "mean before", "mean after", "change"});

  const std::vector<std::pair<std::string, std::string>> figures = {
      {"bayes", "2(a,b)"},       {"svm", "2(c,d)"},   {"kmeans", "2(e,f)"},
      {"pca", "2(g,h)"},         {"aggregation", "3(a,b)"},
      {"join", "3(c,d)"},        {"scan", "3(e,f)"},  {"terasort", "4(a,b)"},
      {"pagerank", "5(a,b)"},    {"facenet", "6(a,b)"}};

  for (const auto& [app, figure] : figures) {
    for (eval::AttackKind attack :
         {eval::AttackKind::kBusLock, eval::AttackKind::kLlcCleansing}) {
      const auto samples =
          eval::RunMeasurementStudy(app, attack, total, mid, seed);
      const pcm::Channel channel = attack == eval::AttackKind::kBusLock
                                       ? pcm::Channel::kAccessNum
                                       : pcm::Channel::kMissNum;
      const auto series = detect::ChannelSeries(samples, channel);
      const StageStats stats = Split(series, static_cast<std::size_t>(mid));
      summary.Row(app, figure, eval::AttackName(attack),
                  pcm::ChannelName(channel),
                  FormatFixed(stats.mean_before, 1),
                  FormatFixed(stats.mean_after, 1),
                  FormatFixed(stats.change() * 100.0, 1) + "%");

      std::cout << app << " / " << eval::AttackName(attack) << " ("
                << pcm::ChannelName(channel) << ", attack at t="
                << clock.ToSeconds(mid) << "s):\n  |"
                << Sparkline(series, 100) << "|\n";
      if (workloads::AppInfoFor(app).periodic) {
        std::cout << "  period before: "
                  << PeriodString(series, 0, static_cast<std::size_t>(mid))
                  << ", after: "
                  << PeriodString(series, static_cast<std::size_t>(mid),
                                  series.size())
                  << " (Observation 2: stretched or destroyed)\n";
      }
    }
  }

  std::cout << "\nSummary (Observation 1: AccessNum drops under bus locking,"
               " MissNum rises under cleansing):\n\n";
  summary.Print(std::cout);
  return 0;
}
