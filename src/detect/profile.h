// Application profiling (Stage 1 of the paper's evaluation protocol).
//
// A benign VM is in a safe state right after it starts or migrates — the
// malicious tenant would first have to re-co-locate. The provider uses that
// window to collect clean PCM samples and build:
//   * boundary profiles (mu_E, sigma_E) of both statistic channels, and
//   * period profiles of both channels when the application is periodic.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/snapshot.h"
#include "detect/boundary.h"
#include "detect/params.h"
#include "detect/period.h"
#include "pcm/pcm_sampler.h"

namespace sds::detect {

struct SdsProfile {
  BoundaryProfile access_boundary;
  BoundaryProfile miss_boundary;
  std::optional<PeriodProfile> access_period;
  std::optional<PeriodProfile> miss_period;

  // An application is handled as periodic when either channel shows a
  // stable period.
  bool periodic() const {
    return access_period.has_value() || miss_period.has_value();
  }
};

// Builds the full profile from clean samples.
SdsProfile BuildSdsProfile(std::span<const pcm::PcmSample> clean,
                           const DetectorParams& params);

// The profile as a field stream: both boundary profiles (mean, stddev),
// then a presence flag plus (period, strength) per channel. Read refuses a
// stream no analyzer could be built from: a non-finite mean or stddev, a
// negative stddev, or a non-finite or non-positive period.
void WriteSdsProfile(SnapshotWriter& w, const SdsProfile& profile);
bool ReadSdsProfile(SnapshotReader& r, SdsProfile* profile);

// Extracts one channel of a sample series as doubles.
std::vector<double> ChannelSeries(std::span<const pcm::PcmSample> samples,
                                  pcm::Channel channel);

}  // namespace sds::detect
