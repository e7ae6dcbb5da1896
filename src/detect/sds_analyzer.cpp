#include "detect/sds_analyzer.h"

#include "common/check.h"

namespace sds::detect {

const char* SdsModeName(SdsMode mode) {
  switch (mode) {
    case SdsMode::kBoundaryOnly:
      return "SDS/B";
    case SdsMode::kPeriodOnly:
      return "SDS/P";
    case SdsMode::kCombined:
      return "SDS";
  }
  return "?";
}

SdsAnalyzer::SdsAnalyzer(const SdsProfile& profile,
                         const DetectorParams& params, SdsMode mode)
    : profile_(profile),
      params_(params),
      mode_(mode),
      b_access_(profile.access_boundary, params),
      b_miss_(profile.miss_boundary, params) {
  if (profile.access_period) p_access_.emplace(*profile.access_period, params);
  if (profile.miss_period) p_miss_.emplace(*profile.miss_period, params);
  SDS_CHECK(mode != SdsMode::kPeriodOnly || profile.periodic(),
            "SDS/P requires a periodic profile");
}

SdsObservation SdsAnalyzer::Observe(const pcm::PcmSample& sample) {
  const auto access = static_cast<double>(sample.access_num);
  const auto miss = static_cast<double>(sample.miss_num);
  SdsObservation o;
  o.ewma_access = b_access_.Observe(access);
  o.ewma_miss = b_miss_.Observe(miss);
  if (p_access_) o.check_access = p_access_->Observe(access);
  if (p_miss_) o.check_miss = p_miss_->Observe(miss);
  return o;
}

bool SdsAnalyzer::boundary_active() const {
  return b_access_.attack_active() || b_miss_.attack_active();
}

bool SdsAnalyzer::period_active() const {
  return (p_access_ && p_access_->attack_active()) ||
         (p_miss_ && p_miss_->attack_active());
}

bool SdsAnalyzer::active() const {
  switch (mode_) {
    case SdsMode::kBoundaryOnly:
      return boundary_active();
    case SdsMode::kPeriodOnly:
      return period_active();
    case SdsMode::kCombined:
      // Periodic applications need both schemes to agree; non-periodic
      // applications are decided by SDS/B alone.
      return profile_.periodic() ? (boundary_active() && period_active())
                                 : boundary_active();
  }
  return false;
}

void SdsAnalyzer::SaveState(SnapshotWriter& w) const {
  b_access_.SaveState(w);
  b_miss_.SaveState(w);
  w.Bool(p_access_.has_value());
  if (p_access_) p_access_->SaveState(w);
  w.Bool(p_miss_.has_value());
  if (p_miss_) p_miss_->SaveState(w);
}

bool SdsAnalyzer::RestoreState(SnapshotReader& r) {
  if (!b_access_.RestoreState(r)) return false;
  if (!b_miss_.RestoreState(r)) return false;
  const bool has_p_access = r.Bool();
  if (!r.ok() || has_p_access != p_access_.has_value()) return false;
  if (p_access_ && !p_access_->RestoreState(r)) return false;
  const bool has_p_miss = r.Bool();
  if (!r.ok() || has_p_miss != p_miss_.has_value()) return false;
  return !p_miss_ || p_miss_->RestoreState(r);
}

}  // namespace sds::detect
