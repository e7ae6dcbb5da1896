// Section 3.4: the exploration the paper ran BEFORE designing SDS —
// spectral coherence, cross-correlation and Pearson correlation between
// cache-statistic segments, with and without an attack. The negative result
// to reproduce: none of these measures shows a usable decreasing trend once
// the attack starts, which is why SDS/B and SDS/P use boundaries and periods
// instead.
#include <iostream>

#include "common/bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "detect/profile.h"
#include "eval/experiment.h"
#include "signal/coherence.h"
#include "stats/correlation.h"

int main(int argc, char** argv) {
  using namespace sds;
  Flags flags;
  if (!flags.Parse(argc, argv, {{"seed", "simulation seed (default 71)"}})) {
    return flags.help_requested() ? 0 : 1;
  }
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 71));

  bench::PrintBenchHeader(
      std::cout, "bench_sec34_correlation",
      "Section 3.4: correlation-based approaches do not separate attack "
      "from no-attack");

  TextTable table;
  table.SetHeader({"application", "attack", "measure", "clean stage",
                   "attack stage"});

  CoherenceOptions copts;
  copts.segment_length = 256;
  copts.overlap = 128;

  for (const char* app : {"bayes", "kmeans", "terasort", "facenet"}) {
    for (eval::AttackKind attack :
         {eval::AttackKind::kBusLock, eval::AttackKind::kLlcCleansing}) {
      const Tick stage = 8000;
      const auto samples =
          eval::RunMeasurementStudy(app, attack, 2 * stage, stage, seed);
      const pcm::Channel channel = attack == eval::AttackKind::kBusLock
                                       ? pcm::Channel::kAccessNum
                                       : pcm::Channel::kMissNum;
      const auto series = detect::ChannelSeries(samples, channel);

      // Split each stage into two equal segments and correlate them — the
      // "statistics at different times should correlate when clean" idea.
      const auto seg = [&](std::size_t i) {
        const std::size_t quarter = series.size() / 4;
        return std::vector<double>(
            series.begin() + static_cast<long>(i * quarter),
            series.begin() + static_cast<long>((i + 1) * quarter));
      };
      const auto c0 = seg(0);
      const auto c1 = seg(1);
      const auto a0 = seg(2);
      const auto a1 = seg(3);

      table.Row(app, eval::AttackName(attack), "pearson",
                FormatFixed(PearsonCorrelation(c0, c1), 3),
                FormatFixed(PearsonCorrelation(a0, a1), 3));
      table.Row(app, eval::AttackName(attack), "max |xcorr| (lag<=100)",
                FormatFixed(MaxAbsCrossCorrelation(c0, c1, 100), 3),
                FormatFixed(MaxAbsCrossCorrelation(a0, a1, 100), 3));
      table.Row(app, eval::AttackName(attack), "mean coherence",
                FormatFixed(MeanCoherence(c0, c1, copts), 3),
                FormatFixed(MeanCoherence(a0, a1, copts), 3));
    }
    std::cout << "." << std::flush;
  }
  std::cout << "\n\n";
  table.Print(std::cout);
  std::cout
      << "\nShape check (paper): no measure shows a consistent decrease "
         "from the clean stage\nto the attack stage across applications — "
         "correlation cannot drive detection.\n";
  return 0;
}
