#include "detect/sds_detector.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "telemetry/telemetry.h"

namespace sds::detect {

namespace tel = sds::telemetry;

SdsDetector::SdsDetector(vm::Hypervisor& hypervisor, OwnerId target,
                         const SdsProfile& profile,
                         const DetectorParams& params, SdsMode mode,
                         pcm::SampleSource* source,
                         const DegradeConfig& degrade)
    : hypervisor_(hypervisor),
      owned_sampler_(source ? nullptr
                            : std::make_unique<pcm::PcmSampler>(hypervisor,
                                                                target)),
      source_(source ? *source : *owned_sampler_),
      gate_(hypervisor, source_, degrade, SdsModeName(mode)),
      analyzer_(profile, params, mode) {
  SDS_CHECK(source_.target() == target,
            "SampleSource monitors a different VM than the detector");
  if (tel::Telemetry* t = hypervisor_.telemetry()) {
    prof_ = &t->profiler();
    span_tick_ = prof_->RegisterSpan("detect.sds.tick");
  }
  if (!source_.started()) source_.Start();
  gate_.OnSessionStart();
}

void SdsDetector::AuditBoundary(Tick tick, const char* channel,
                                const BoundaryAnalyzer& analyzer, double ewma,
                                bool alarm) {
  tel::Telemetry* t = hypervisor_.telemetry();
  if (!t) return;
  tel::AuditRecord r;
  r.tick = tick;
  r.detector = SdsModeName(mode());
  r.check = "boundary";
  r.channel = channel;
  r.value = ewma;
  r.lower = analyzer.lower_bound();
  r.upper = analyzer.upper_bound();
  r.violation = ewma < r.lower || ewma > r.upper;
  // Margin in clean-profile sigma units: how far beyond the Chebyshev bound
  // the EWMA value sits (negative = inside, with that much headroom).
  const double sigma = std::max(analyzer.profile().stddev, 1e-12);
  const double outside = std::max(r.lower - ewma, ewma - r.upper);
  r.margin = outside / sigma;
  r.consecutive = analyzer.consecutive_violations();
  r.alarm = alarm;
  t->audit().Append(r);
  if (t->tracer().enabled(tel::Layer::kDetect)) {
    t->tracer().Emit(tel::MakeEvent(tick, tel::Layer::kDetect,
                                    "boundary_check")
                         .Str("channel", channel)
                         .Num("ewma", ewma)
                         .Num("violation", r.violation ? 1.0 : 0.0)
                         .Num("consecutive", r.consecutive));
  }
}

void SdsDetector::AuditPeriod(Tick tick, const char* channel,
                              const PeriodAnalyzer& analyzer,
                              const PeriodCheck& check, bool alarm) {
  tel::Telemetry* t = hypervisor_.telemetry();
  if (!t) return;
  const double nominal = analyzer.profile().period;
  tel::AuditRecord r;
  r.tick = tick;
  r.detector = SdsModeName(mode());
  r.check = "period";
  r.channel = channel;
  r.value = check.period.value_or(0.0);
  r.lower = nominal * (1.0 - analyzer.tolerance());
  r.upper = nominal * (1.0 + analyzer.tolerance());
  r.violation = check.abnormal;
  // Margin as relative period deviation beyond the tolerance band; an
  // undetectable period is maximally abnormal.
  if (check.period.has_value() && nominal > 0.0) {
    r.margin =
        std::fabs(*check.period - nominal) / nominal - analyzer.tolerance();
  } else {
    r.margin = 1.0;
  }
  r.consecutive = analyzer.consecutive_abnormal();
  r.alarm = alarm;
  t->audit().Append(r);
  if (t->tracer().enabled(tel::Layer::kDetect)) {
    t->tracer().Emit(tel::MakeEvent(tick, tel::Layer::kDetect, "period_check")
                         .Str("channel", channel)
                         .Num("period", r.value)
                         .Num("abnormal", r.violation ? 1.0 : 0.0)
                         .Num("consecutive", r.consecutive));
  }
}

void SdsDetector::OnTick() {
  SDS_PROFILE_SPAN(prof_, span_tick_);
  const DegradingSampleGate::Outcome out = gate_.OnTick();
  // A gap or sampler restart severed the sample stream: reset the
  // preprocessing windows and counters; the clean profile stays valid.
  if (out.rewarm) {
    analyzer_ = SdsAnalyzer(analyzer_.profile(), analyzer_.params(), mode());
  }
  // No usable sample and nothing to substitute: analyzers freeze this tick.
  if (!out.sample) return;
  const pcm::PcmSample s = *out.sample;
  const SdsObservation o = analyzer_.Observe(s);
  const bool active = analyzer_.active();

  // Audit every decision made this tick. EWMA windows on both channels
  // complete together (same W/dW), so this is one audit pair per decision
  // interval.
  if (o.ewma_access) {
    AuditBoundary(s.tick, "AccessNum", analyzer_.access_boundary(),
                  *o.ewma_access, active);
  }
  if (o.ewma_miss) {
    AuditBoundary(s.tick, "MissNum", analyzer_.miss_boundary(), *o.ewma_miss,
                  active);
  }
  if (o.check_access) {
    AuditPeriod(s.tick, "AccessNum", *analyzer_.access_period(),
                *o.check_access, active);
  }
  if (o.check_miss) {
    AuditPeriod(s.tick, "MissNum", *analyzer_.miss_period(), *o.check_miss,
                active);
  }

  if (active && !was_active_) {
    ++alarm_events_;
    last_trigger_ = s.tick;
    tel::Telemetry* t = hypervisor_.telemetry();
    if (t && t->tracer().enabled(tel::Layer::kDetect)) {
      t->tracer().Emit(tel::MakeEvent(s.tick, tel::Layer::kDetect,
                                      "alarm_raised")
                           .Str("detector", SdsModeName(mode()))
                           .Num("boundary_active", boundary_active() ? 1 : 0)
                           .Num("period_active", period_active() ? 1 : 0));
    }
  } else if (!active && was_active_) {
    ++retraction_events_;
    last_retraction_ = s.tick;
    tel::Telemetry* t = hypervisor_.telemetry();
    if (t && t->tracer().enabled(tel::Layer::kDetect)) {
      t->tracer().Emit(tel::MakeEvent(s.tick, tel::Layer::kDetect,
                                      "alarm_cleared")
                           .Str("detector", SdsModeName(mode())));
    }
  }
  was_active_ = active;
}

std::uint64_t SdsDetector::ConfigFingerprint() const {
  SnapshotWriter w;
  w.U32(static_cast<std::uint32_t>(mode()));
  WriteSdsProfile(w, analyzer_.profile());
  const DetectorParams& params = analyzer_.params();
  w.U64(params.window);
  w.U64(params.step);
  w.F64(params.alpha);
  w.F64(params.boundary_k);
  w.I64(params.h_c);
  w.F64(params.wp_multiplier);
  w.U64(params.delta_wp);
  w.I64(params.h_p);
  w.F64(params.period_tolerance);
  return Fnv1a(w.data());
}

void SdsDetector::SaveState(SnapshotWriter& w) const {
  gate_.SaveState(w);
  analyzer_.SaveState(w);
  w.Bool(was_active_);
  w.U64(alarm_events_);
  w.I64(last_trigger_);
  w.U64(retraction_events_);
  w.I64(last_retraction_);
}

bool SdsDetector::RestoreState(SnapshotReader& r) {
  if (!gate_.RestoreState(r)) return false;
  if (!analyzer_.RestoreState(r)) return false;
  const bool was_active = r.Bool();
  const std::uint64_t alarm_events = r.U64();
  const std::int64_t last_trigger = r.I64();
  const std::uint64_t retraction_events = r.U64();
  const std::int64_t last_retraction = r.I64();
  if (!r.ok()) return false;
  was_active_ = was_active;
  alarm_events_ = alarm_events;
  last_trigger_ = static_cast<Tick>(last_trigger);
  retraction_events_ = retraction_events;
  last_retraction_ = static_cast<Tick>(last_retraction);
  return true;
}

}  // namespace sds::detect
