// Graceful degradation of the detection pipeline under an imperfect
// monitoring plane.
//
// The paper's detectors assume one clean PCM sample per tick. Production
// monitoring does not deliver that: reads drop, intervals coalesce, counters
// reset, the sampler dies. This module gives detectors a disciplined way to
// keep operating — and keep their statistics honest — when that happens:
//
//   * SampleSanityGate    rejects physically-impossible samples (quarantine)
//                         before they can poison sigma_E boundaries or the
//                         KS reference CDF;
//   * SamplerWatchdog     detects a dead SampleSource and restarts it with
//                         bounded exponential backoff;
//   * DegradingSampleGate composes source + sanity + watchdog + gap policy
//                         into the single per-tick read detectors consume.
//
// Gap policies (what to feed the analyzers when a tick has no usable
// sample):
//   kHoldLast    substitute the last good sample — the EWMA effectively
//                holds its value and decision cadence is preserved;
//   kSkipFreeze  feed nothing — analyzer windows and consecutive-violation
//                counters freeze until real data resumes;
//   kRewarm      like kSkipFreeze, and a gap of >= kRewarmGap ticks resets
//                the preprocessing pipeline so a stale half-filled MA window
//                never mixes pre- and post-gap data (a fresh warm-up, as
//                after a VM migration).
//
// TRANSPARENCY INVARIANT: with a fault-free source, every policy is
// bit-transparent — the gate returns exactly the source's samples, the
// sanity gate accepts every sample the simulator can physically produce,
// and the watchdog never fires. tests/integration/golden_regression_test
// pins this.
#pragma once

#include <cstdint>
#include <optional>

#include "common/snapshot.h"
#include "common/types.h"
#include "pcm/pcm_sampler.h"
#include "pcm/sample_source.h"
#include "vm/hypervisor.h"

namespace sds::detect {

enum class GapPolicy : std::uint8_t {
  kHoldLast,
  kSkipFreeze,
  kRewarm,
};

const char* GapPolicyName(GapPolicy policy);

// Hard ceiling on a physically possible per-interval delta for either
// channel. The simulated machine's bus serves well under 10k operations per
// tick; this leaves two orders of magnitude of headroom so no legitimate
// sample is ever quarantined.
inline constexpr std::uint64_t kMaxSampleDeltaPerTick = 1'000'000;

// kRewarm: gap length (in ticks) that triggers a pipeline re-warm.
inline constexpr Tick kRewarmGap = 50;

struct DegradeConfig {
  GapPolicy gap_policy = GapPolicy::kHoldLast;
};

// Stateless sample validation: both deltas under the span-scaled ceiling,
// and misses no more than accesses (LLC misses are a subset of LLC
// accesses, so a sample violating that is corrupt by construction).
// `span_ticks` is the number of PCM intervals the sample's delta covers
// (1 + the missed ticks it coalesced), which scales the ceiling so a
// legitimate post-gap sample is not quarantined.
bool SampleIsSane(const pcm::PcmSample& sample, Tick span_ticks);

class SamplerWatchdog {
 public:
  SamplerWatchdog(pcm::SampleSource& source, vm::Hypervisor& hypervisor);

  // Report one tick with no sample. May attempt a restart (rate-limited by
  // the backoff); returns true when a restart SUCCEEDED this tick — the
  // source was re-baselined and the consumer should re-warm.
  bool OnMissing(Tick now);
  // Report a delivered sample: resets the miss streak and the backoff.
  void OnDelivered();

  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t restarts() const { return restarts_; }
  int miss_streak() const { return miss_streak_; }

  // Snapshot/restore of the miss streak, backoff schedule and lifetime
  // counters (the source/hypervisor references are construction inputs).
  void SaveState(SnapshotWriter& w) const;
  bool RestoreState(SnapshotReader& r);

 private:
  pcm::SampleSource& source_;
  vm::Hypervisor& hypervisor_;
  int miss_streak_ = 0;
  Tick next_attempt_ = 0;
  Tick backoff_ = 0;
  std::uint64_t attempts_ = 0;
  std::uint64_t restarts_ = 0;
};

// Aggregate degradation activity, for run reports and the robustness bench.
struct DegradeStats {
  std::uint64_t delivered = 0;
  std::uint64_t gap_ticks = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t substituted = 0;
  std::uint64_t rewarms = 0;
  std::uint64_t watchdog_attempts = 0;
  std::uint64_t watchdog_restarts = 0;
};

class DegradingSampleGate {
 public:
  // `consumer` names the detector in telemetry events and audit records;
  // must be a string literal (or outlive the gate).
  DegradingSampleGate(vm::Hypervisor& hypervisor, pcm::SampleSource& source,
                      const DegradeConfig& config, const char* consumer);

  struct Outcome {
    // The sample to feed the analyzers. nullopt = feed nothing this tick
    // (gap under kSkipFreeze/kRewarm, or nothing to substitute yet).
    std::optional<pcm::PcmSample> sample;
    // A raw sample arrived from the source (sample may still be empty if it
    // was quarantined).
    bool delivered = false;
    bool quarantined = false;
    // True when sample is a hold-last substitute, not fresh data.
    bool substituted = false;
    // The consumer must reset its preprocessing pipeline: a long gap under
    // kRewarm, or a successful watchdog restart under kSkipFreeze/kRewarm
    // (kHoldLast keeps analyzer state — its substitute stream stayed
    // continuous across the gap).
    bool rewarm = false;
  };

  // Call exactly once per hypervisor tick while the source is started.
  Outcome OnTick();

  // Forget the gap run and hold-last sample (call when a new monitoring
  // session starts: the previous session's last sample is stale context).
  void OnSessionStart();

  const DegradeStats& stats() const { return stats_; }
  const SamplerWatchdog& watchdog() const { return watchdog_; }
  const DegradeConfig& config() const { return config_; }

  // Snapshot/restore: hold-last sample, gap run, pending rewarm, lifetime
  // stats, and the embedded watchdog. The config is a construction input;
  // restore validates the saved gap policy matches and refuses otherwise.
  void SaveState(SnapshotWriter& w) const;
  bool RestoreState(SnapshotReader& r);

 private:
  void EmitDegrade(Tick tick, const char* action, double value, double bound,
                   bool violation);

  vm::Hypervisor& hypervisor_;
  pcm::SampleSource& source_;
  DegradeConfig config_;
  const char* consumer_;
  SamplerWatchdog watchdog_;
  std::optional<pcm::PcmSample> last_good_;
  // Consecutive ticks without a usable sample, so far.
  Tick gap_run_ = 0;
  bool rewarm_pending_ = false;
  DegradeStats stats_;
};

}  // namespace sds::detect
