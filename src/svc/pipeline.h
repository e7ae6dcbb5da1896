// Per-tenant detection pipeline hosted by the streaming service.
//
// Each admitted tenant runs the paper's combined SDS over its own sample
// stream, hypervisor-free: the service consumes counter readings off a feed,
// so the pipeline profiles both channels during the tenant's clean warm-up
// window (BuildSdsProfile) and then hands every sample to one
// detect::SdsAnalyzer in kCombined mode — the same decision core the live
// SdsDetector runs.
//
// Every pipeline is snapshot-complete: SaveState serializes the phase, the
// warm-up trace (when still profiling), the built profile and the analyzer
// state (when monitoring), so a checkpointed-and-restored pipeline makes
// bit-identical decisions from the restore point on — the tenant-level half
// of the service's crash-recovery pin.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/snapshot.h"
#include "detect/params.h"
#include "detect/sds_analyzer.h"
#include "pcm/pcm_sampler.h"

namespace sds::svc {

struct PipelineConfig {
  detect::DetectorParams det;
  // Admitted samples collected before monitoring starts. Must be large
  // enough for BuildSdsProfile (>= det.window + det.step).
  std::uint32_t profile_len = 600;
};

// The verdict for one admitted sample.
struct PipelineDecision {
  // False while the pipeline is still profiling (no verdicts yet).
  bool decided = false;
  bool active = false;
  bool alarm = false;    // rising edge at this sample
  bool cleared = false;  // falling edge at this sample
};

class TenantPipeline {
 public:
  explicit TenantPipeline(const PipelineConfig& config);

  // Feeds one admitted sample (drained from the service queue, in order).
  PipelineDecision OnSample(const pcm::PcmSample& sample);

  bool monitoring() const { return analyzer_.has_value(); }
  bool active() const { return was_active_; }
  std::uint64_t samples_seen() const { return samples_seen_; }

  // Restore refuses a stream whose profile no analyzer could be built from
  // or whose analyzer section disagrees with that profile.
  void SaveState(SnapshotWriter& w) const;
  bool RestoreState(SnapshotReader& r);

 private:
  PipelineConfig config_;
  bool was_active_ = false;
  std::uint64_t samples_seen_ = 0;
  // Profiling phase: the clean warm-up trace.
  std::vector<pcm::PcmSample> warmup_;
  // Monitoring phase: set once the warm-up window is full.
  std::optional<detect::SdsAnalyzer> analyzer_;
};

}  // namespace sds::svc
