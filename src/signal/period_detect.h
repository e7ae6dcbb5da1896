// DFT-ACF period detection (Vlachos et al. [40], as adopted by SDS/P).
//
// Neither transform alone is reliable: the DFT can report frequencies that do
// not exist in the series (spectral leakage), while the ACF also peaks at
// integer multiples of the true period. The combined procedure:
//
//   1. Compute the periodogram and extract candidate periods from the
//      significant spectral peaks.
//   2. For each candidate, check that it lies on a hill of the ACF, and snap
//      it to the nearest ACF local maximum.
//   3. Among validated candidates, return the one with the strongest ACF
//      value; prefer the smallest period among near-equal candidates so that
//      ACF multiples of the fundamental do not win.
#pragma once

#include <optional>
#include <span>

namespace sds {

struct PeriodEstimate {
  // Period in samples (snapped to the validating ACF peak).
  double period = 0.0;
  // ACF value at the snapped lag; in (0, 1]. Higher = stronger periodicity.
  double strength = 0.0;
};

// Returns the detected period of `x`, or nullopt when no candidate passes
// both the spectral and the ACF validation (i.e. the series does not look
// periodic). x.size() should be at least twice the longest period of
// interest, mirroring the paper's W_P = 2p choice.
std::optional<PeriodEstimate> DetectPeriod(std::span<const double> x);

}  // namespace sds
