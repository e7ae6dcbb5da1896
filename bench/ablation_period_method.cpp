// Ablation (motivated by Section 4.2.2): DFT-only vs ACF-only vs the
// combined DFT-ACF period estimator on synthetic series with planted
// periods. The paper's argument for combining them:
//   * DFT alone detects false frequencies (spectral leakage);
//   * ACF alone returns multiples of the true period;
//   * DFT candidates validated on ACF hills avoid both failure modes.
#include <cmath>
#include <iostream>
#include <numbers>
#include <optional>

#include "common/bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/rng.h"
#include "signal/acf.h"
#include "signal/period_detect.h"
#include "signal/periodogram.h"

namespace {

using namespace sds;

std::vector<double> MakeSeries(std::size_t n, double period, double noise,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double phase = std::fmod(static_cast<double>(t), period) / period;
    // Asymmetric batch-like waveform, the shape cache statistics produce.
    x[t] = (phase < 0.35 ? 1.0 : -0.55) + noise * rng.Normal();
  }
  return x;
}

std::optional<double> DftOnly(const std::vector<double>& x) {
  const auto power = Periodogram(x, true);
  const auto peaks = FindSpectrumPeaks(power, x.size(), 3.0, 1);
  if (peaks.empty()) return std::nullopt;
  return peaks[0].period;
}

std::optional<double> AcfOnly(const std::vector<double>& x) {
  const auto acf = AutocorrelationFft(x, x.size() / 2);
  // Largest ACF value at any lag >= 2 that sits on a hill.
  std::optional<double> best;
  double best_val = 0.2;
  for (std::size_t lag = 2; lag < acf.size(); ++lag) {
    if (acf[lag] > best_val && IsOnAcfHill(acf, lag, 3)) {
      best_val = acf[lag];
      best = static_cast<double>(lag);
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(argc, argv,
                   {{"trials", "synthetic series per method (default 200)"}})) {
    return flags.help_requested() ? 0 : 1;
  }
  const int trials = static_cast<int>(flags.GetInt("trials", 200));

  bench::PrintBenchHeader(
      std::cout, "bench_ablation_period_method",
      "Ablation of the Vlachos-style period estimator: DFT-only vs "
      "ACF-only vs DFT-ACF (Section 4.2.2)");

  TextTable table;
  table.SetHeader({"period", "noise", "DFT-only ok", "ACF-only ok",
                   "DFT-ACF ok", "ACF multiple-errors"});

  for (double period : {12.0, 17.0, 30.0}) {
    for (double noise : {0.3, 0.8}) {
      int dft_ok = 0;
      int acf_ok = 0;
      int combined_ok = 0;
      int acf_multiples = 0;
      for (int t = 0; t < trials; ++t) {
        const auto x =
            MakeSeries(static_cast<std::size_t>(period * 6), period, noise,
                       static_cast<std::uint64_t>(t) * 131 + 7);
        const auto within = [&](std::optional<double> est) {
          return est && std::abs(*est - period) / period <= 0.2;
        };
        if (within(DftOnly(x))) ++dft_ok;
        const auto acf_est = AcfOnly(x);
        if (within(acf_est)) ++acf_ok;
        if (acf_est && *acf_est > 1.6 * period) ++acf_multiples;
        const auto combined = DetectPeriod(x);
        if (within(combined ? std::optional<double>(combined->period)
                            : std::nullopt)) {
          ++combined_ok;
        }
      }
      const auto pct = [&](int n) {
        return FormatFixed(100.0 * n / trials, 0) + "%";
      };
      table.Row(FormatFixed(period, 0), FormatFixed(noise, 1), pct(dft_ok),
                pct(acf_ok), pct(combined_ok), pct(acf_multiples));
    }
  }
  table.Print(std::cout);
  std::cout << "\nExpected: DFT-ACF matches or beats both single-method "
               "estimators; ACF-only errors concentrate on period "
               "multiples; DFT-only loses accuracy at high noise via "
               "leakage.\n";
  return 0;
}
