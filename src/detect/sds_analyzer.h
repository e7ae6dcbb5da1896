// The SDS decision (Section 5.1), hypervisor-free: the one place that builds
// the stream analyzers from a clean profile, feeds them both statistic
// channels and combines their verdicts.
//
// Channel policy: both channels are monitored simultaneously — AccessNum
// catches the bus locking attack, MissNum the LLC cleansing attack — and a
// scheme is active when EITHER channel's analyzer is active. The combined
// SDS follows the paper exactly: for non-periodic applications only SDS/B
// decides; for periodic applications BOTH SDS/B and SDS/P must agree before
// the alarm is raised (this conjunction removes residual false positives,
// Figure 10).
//
// SdsDetector wraps it with a live sampler, degradation gate and auditing;
// the streaming service's TenantPipeline feeds it admitted samples.
#pragma once

#include <cstdint>
#include <optional>

#include "common/snapshot.h"
#include "detect/boundary.h"
#include "detect/params.h"
#include "detect/period.h"
#include "detect/profile.h"
#include "pcm/pcm_sampler.h"

namespace sds::detect {

enum class SdsMode : std::uint8_t {
  kBoundaryOnly,  // SDS/B
  kPeriodOnly,    // SDS/P (valid only for periodic applications)
  kCombined,      // SDS
};

const char* SdsModeName(SdsMode mode);

// What one sample produced on each channel: the new EWMA value when a
// boundary window completed, the period check when one ran.
struct SdsObservation {
  std::optional<double> ewma_access;
  std::optional<double> ewma_miss;
  std::optional<PeriodCheck> check_access;
  std::optional<PeriodCheck> check_miss;
};

class SdsAnalyzer {
 public:
  // The profile must come from a clean window of the same application
  // (BuildSdsProfile). For kPeriodOnly the profile must be periodic.
  SdsAnalyzer(const SdsProfile& profile, const DetectorParams& params,
              SdsMode mode);

  SdsObservation Observe(const pcm::PcmSample& sample);

  bool boundary_active() const;
  bool period_active() const;
  // The mode's decision.
  bool active() const;

  const BoundaryAnalyzer& access_boundary() const { return b_access_; }
  const BoundaryAnalyzer& miss_boundary() const { return b_miss_; }
  // Null when the profile found that channel non-periodic.
  const PeriodAnalyzer* access_period() const {
    return p_access_ ? &*p_access_ : nullptr;
  }
  const PeriodAnalyzer* miss_period() const {
    return p_miss_ ? &*p_miss_ : nullptr;
  }
  const SdsProfile& profile() const { return profile_; }
  const DetectorParams& params() const { return params_; }
  SdsMode mode() const { return mode_; }

  // Streaming state: b_access, b_miss, then a presence flag plus state for
  // each period analyzer. Restore refuses a stream whose flags disagree
  // with this analyzer's profile.
  void SaveState(SnapshotWriter& w) const;
  bool RestoreState(SnapshotReader& r);

 private:
  SdsProfile profile_;
  DetectorParams params_;
  SdsMode mode_;
  BoundaryAnalyzer b_access_;
  BoundaryAnalyzer b_miss_;
  std::optional<PeriodAnalyzer> p_access_;
  std::optional<PeriodAnalyzer> p_miss_;
};

}  // namespace sds::detect
