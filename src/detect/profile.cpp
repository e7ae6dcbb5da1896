#include "detect/profile.h"

#include <cmath>

namespace sds::detect {

std::vector<double> ChannelSeries(std::span<const pcm::PcmSample> samples,
                                  pcm::Channel channel) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(pcm::SampleValue(s, channel));
  return out;
}

SdsProfile BuildSdsProfile(std::span<const pcm::PcmSample> clean,
                           const DetectorParams& params) {
  const auto access = ChannelSeries(clean, pcm::Channel::kAccessNum);
  const auto miss = ChannelSeries(clean, pcm::Channel::kMissNum);

  SdsProfile profile;
  profile.access_boundary = BuildBoundaryProfile(access, params);
  profile.miss_boundary = BuildBoundaryProfile(miss, params);
  profile.access_period = ClassifyPeriodicity(access, params);
  profile.miss_period = ClassifyPeriodicity(miss, params);
  return profile;
}

namespace {

void WritePeriod(SnapshotWriter& w, const std::optional<PeriodProfile>& p) {
  w.Bool(p.has_value());
  if (p) {
    w.F64(p->period);
    w.F64(p->strength);
  }
}

bool ReadBoundary(SnapshotReader& r, BoundaryProfile* b) {
  b->mean = r.F64();
  b->stddev = r.F64();
  return r.ok() && std::isfinite(b->mean) && std::isfinite(b->stddev) &&
         b->stddev >= 0.0;
}

bool ReadPeriod(SnapshotReader& r, std::optional<PeriodProfile>* p) {
  p->reset();
  if (!r.Bool()) return r.ok();
  PeriodProfile& period = p->emplace();
  period.period = r.F64();
  period.strength = r.F64();
  return r.ok() && std::isfinite(period.period) && period.period > 0.0;
}

}  // namespace

void WriteSdsProfile(SnapshotWriter& w, const SdsProfile& profile) {
  w.F64(profile.access_boundary.mean);
  w.F64(profile.access_boundary.stddev);
  w.F64(profile.miss_boundary.mean);
  w.F64(profile.miss_boundary.stddev);
  WritePeriod(w, profile.access_period);
  WritePeriod(w, profile.miss_period);
}

bool ReadSdsProfile(SnapshotReader& r, SdsProfile* profile) {
  return ReadBoundary(r, &profile->access_boundary) &&
         ReadBoundary(r, &profile->miss_boundary) &&
         ReadPeriod(r, &profile->access_period) &&
         ReadPeriod(r, &profile->miss_period);
}

}  // namespace sds::detect
