#include "signal/period_detect.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "signal/acf.h"
#include "signal/periodogram.h"

namespace sds {
namespace {

// Spectral peaks must exceed this multiple of the mean non-DC power.
constexpr double kSpectrumThreshold = 3.0;
// Consider at most this many spectral candidates.
constexpr std::size_t kMaxCandidates = 8;
// ACF hill search radius as a fraction of the candidate period.
constexpr double kHillRadiusFraction = 0.35;
// Minimum ACF strength for a candidate to be accepted.
constexpr double kMinStrength = 0.2;
// Apply a Hann window before the DFT stage.
constexpr bool kHannWindow = true;
// Two validated candidates whose strengths differ by less than this are
// considered equal, in which case the smaller period wins (anti-multiple).
constexpr double kStrengthTieMargin = 0.05;

// Finds the ACF local maximum nearest to `lag` within +-radius; returns the
// lag of that maximum, or 0 when the neighbourhood is monotone (no hill).
std::size_t SnapToAcfPeak(std::span<const double> acf, std::size_t lag,
                          std::size_t radius) {
  const std::size_t lo = lag > radius ? lag - radius : 1;
  const std::size_t hi = std::min(acf.size() - 1, lag + radius);
  if (lo >= hi) return 0;

  std::size_t best = 0;
  double best_val = -2.0;
  for (std::size_t i = lo; i <= hi; ++i) {
    const bool is_local_max =
        (i == 1 || acf[i] >= acf[i - 1]) &&
        (i + 1 >= acf.size() || acf[i] >= acf[i + 1]);
    if (is_local_max && acf[i] > best_val) {
      best_val = acf[i];
      best = i;
    }
  }
  return best;
}

}  // namespace

std::optional<PeriodEstimate> DetectPeriod(std::span<const double> x) {
  if (x.size() < 8) return std::nullopt;

  const auto power = Periodogram(x, kHannWindow);
  const auto candidates =
      FindSpectrumPeaks(power, x.size(), kSpectrumThreshold, kMaxCandidates);
  if (candidates.empty()) return std::nullopt;

  const std::size_t max_lag = x.size() / 2;
  const auto acf = AutocorrelationFft(x, max_lag);

  std::optional<PeriodEstimate> best;
  for (const auto& cand : candidates) {
    const auto lag = static_cast<std::size_t>(cand.period + 0.5);
    if (lag < 2 || lag > max_lag) continue;
    const auto radius = std::max<std::size_t>(
        2, static_cast<std::size_t>(kHillRadiusFraction *
                                    static_cast<double>(lag)));
    if (!IsOnAcfHill(acf, SnapToAcfPeak(acf, lag, radius), radius) &&
        !IsOnAcfHill(acf, lag, radius)) {
      continue;
    }
    const std::size_t snapped = SnapToAcfPeak(acf, lag, radius);
    if (snapped == 0) continue;
    const double strength = acf[snapped];
    if (strength < kMinStrength) continue;

    PeriodEstimate est;
    est.period = static_cast<double>(snapped);
    est.strength = strength;

    if (!best) {
      best = est;
      continue;
    }
    // Prefer clearly stronger candidates; on near-ties prefer the smaller
    // period so ACF multiples of the fundamental do not win.
    if (est.strength > best->strength + kStrengthTieMargin) {
      best = est;
    } else if (std::abs(est.strength - best->strength) <=
                   kStrengthTieMargin &&
               est.period < best->period) {
      best = est;
    }
  }
  return best;
}

}  // namespace sds
