// The SDS detection system (Section 5.1): SDS/B alone, SDS/P alone, or the
// combined SDS, wired to a live hypervisor through one always-on PCM sampler.
//
// The decision itself — analyzers, channel policy, the periodic
// conjunction — is detect/sds_analyzer.h's SdsAnalyzer. This class adds
// what a live deployment needs around it: the degradation gate over the
// sample source, decision audit records, alarm/retraction edges,
// telemetry, and snapshots of all of that.
#pragma once

#include <memory>

#include "detect/degrade.h"
#include "detect/detector.h"
#include "detect/sds_analyzer.h"
#include "pcm/pcm_sampler.h"
#include "pcm/sample_source.h"
#include "vm/hypervisor.h"

namespace sds::detect {

class SdsDetector final : public Detector {
 public:
  // The profile must come from a clean window of the same application
  // (BuildSdsProfile). For kPeriodOnly the profile must be periodic.
  //
  // Monitoring-plane seam: reads `source` (nullptr = own a perfect
  // PcmSampler) through a DegradingSampleGate configured by `degrade`, so
  // the detector survives dropped samples, outages, corrupt reads and
  // sampler death. An external `source` must outlive the detector; the
  // detector starts it. Over a perfect sampler the gate is bit-transparent
  // (pinned by tests/integration/golden_regression_test).
  SdsDetector(vm::Hypervisor& hypervisor, OwnerId target,
              const SdsProfile& profile, const DetectorParams& params,
              SdsMode mode, pcm::SampleSource* source = nullptr,
              const DegradeConfig& degrade = {});

  void OnTick() override;
  bool attack_active() const override { return analyzer_.active(); }
  std::uint64_t alarm_events() const override { return alarm_events_; }
  Tick last_alarm_trigger_tick() const override { return last_trigger_; }
  std::string_view name() const override { return SdsModeName(mode()); }
  // Retractions: falling edges of the decision (the detector withdrew an
  // alarm it previously raised). Part of the snapshot state.
  std::uint64_t retraction_events() const { return retraction_events_; }
  Tick last_retraction_tick() const { return last_retraction_; }

  // Introspection for the example binaries and the Figure 7/8 benches.
  const PeriodAnalyzer* access_period() const {
    return analyzer_.access_period();
  }
  const PeriodAnalyzer* miss_period() const { return analyzer_.miss_period(); }
  bool boundary_active() const { return analyzer_.boundary_active(); }
  bool period_active() const { return analyzer_.period_active(); }
  SdsMode mode() const { return analyzer_.mode(); }

  // Degradation activity of this detector's sample gate.
  const DegradingSampleGate& gate() const { return gate_; }

  // Snapshot/restore at a tick boundary (DESIGN.md §13) so a monitoring
  // service restarts without re-warming its analyzer windows. Serialized:
  // analyzer pipelines (both channels), gate + watchdog state, and alarm
  // edge tracking. NOT serialized: the PCM sampler (restore assumes the
  // replacement source Start()s at the same tick boundary, which
  // re-baselines its cumulative counters to exactly where the old sampler
  // left off) and telemetry handles. ConfigFingerprint() hashes the
  // profile/params/mode so a snapshot cannot restore into a detector built
  // with a different configuration.
  std::uint64_t ConfigFingerprint() const;
  void SaveState(SnapshotWriter& w) const;
  bool RestoreState(SnapshotReader& r);

 private:
  // Decision auditing (no-ops when the hypervisor has no telemetry handle).
  void AuditBoundary(Tick tick, const char* channel,
                     const BoundaryAnalyzer& analyzer, double ewma,
                     bool alarm);
  void AuditPeriod(Tick tick, const char* channel,
                   const PeriodAnalyzer& analyzer, const PeriodCheck& check,
                   bool alarm);

  vm::Hypervisor& hypervisor_;
  // Set when the detector owns its (perfect) sampler; source_ then refers
  // to it. With an external SampleSource, owned_sampler_ stays null.
  std::unique_ptr<pcm::PcmSampler> owned_sampler_;
  pcm::SampleSource& source_;
  DegradingSampleGate gate_;
  SdsAnalyzer analyzer_;
  // "detect.sds.tick" profiler span around OnTick (gate read + analyzers +
  // auditing). Span id is a raw integer (telemetry::SpanId).
  telemetry::SpanProfiler* prof_ = nullptr;
  std::uint32_t span_tick_ = 0;
  bool was_active_ = false;
  std::uint64_t alarm_events_ = 0;
  Tick last_trigger_ = kInvalidTick;
  std::uint64_t retraction_events_ = 0;
  Tick last_retraction_ = kInvalidTick;
};

}  // namespace sds::detect
