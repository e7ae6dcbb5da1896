#include "detect/kstest_detector.h"

#include <algorithm>

#include "common/check.h"
#include "stats/ks_test.h"
#include "telemetry/telemetry.h"

namespace sds::detect {

namespace tel = sds::telemetry;

namespace {
// Ticks the machine settles after a candidate is throttled, before its
// samples are collected (the candidate stays throttled for settle + window).
constexpr Tick kIdentifySettleTicks = 100;
}  // namespace

void KsTestDetector::TraceDetect(const char* name, std::int64_t owner,
                                 const char* key, double value) {
  tel::Telemetry* t = hypervisor_.telemetry();
  if (!t || !t->tracer().enabled(tel::Layer::kDetect)) return;
  tel::TraceEvent e =
      tel::MakeEvent(hypervisor_.now(), tel::Layer::kDetect, name, owner);
  e.Str("detector", "KStest");
  if (key) e.Num(key, value);
  t->tracer().Emit(e);
}

void KsTestDetector::AuditKsDecision(const char* channel, double p_value,
                                     double statistic, int consecutive) {
  tel::Telemetry* t = hypervisor_.telemetry();
  if (!t) return;
  tel::AuditRecord r;
  r.tick = hypervisor_.now();
  r.detector = "KStest";
  r.check = "kstest";
  r.channel = channel;
  r.value = p_value;
  // The test passes while the p-value stays in [alpha, 1]. Margin is the
  // rejection depth relative to the significance level.
  r.lower = params_.alpha;
  r.upper = 1.0;
  r.violation = p_value < params_.alpha;
  r.margin = (params_.alpha - p_value) / params_.alpha;
  r.consecutive = consecutive;
  r.alarm = attack_active_;
  t->audit().Append(r);
  if (t->tracer().enabled(tel::Layer::kDetect)) {
    t->tracer().Emit(tel::MakeEvent(r.tick, tel::Layer::kDetect,
                                    "ks_decision")
                         .Str("channel", channel)
                         .Num("p_value", p_value)
                         .Num("statistic", statistic)
                         .Num("rejected", r.violation ? 1.0 : 0.0)
                         .Num("consecutive", consecutive));
  }
}

KsTestDetector::KsTestDetector(vm::Hypervisor& hypervisor, OwnerId target,
                               const KsTestParams& params,
                               const KsIdentificationParams& ident,
                               pcm::SampleSource* source,
                               const DegradeConfig& degrade)
    : hypervisor_(hypervisor),
      owned_sampler_(source ? nullptr
                            : std::make_unique<pcm::PcmSampler>(hypervisor,
                                                                target)),
      source_(source ? *source : *owned_sampler_),
      params_(params),
      ident_(ident),
      gate_(hypervisor, source_, degrade, "KStest") {
  SDS_CHECK(source_.target() == target,
            "SampleSource monitors a different VM than the detector");
  if (tel::Telemetry* t = hypervisor_.telemetry()) {
    prof_ = &t->profiler();
    span_tick_ = prof_->RegisterSpan("detect.kstest.tick");
  }
  SDS_CHECK(params.w_r > 0 && params.w_m > 0, "windows must be positive");
  SDS_CHECK(params.l_r >= params.w_r, "L_R must cover W_R");
  SDS_CHECK(params.l_m >= params.w_m, "L_M must cover W_M");
  SDS_CHECK(params.alpha > 0.0 && params.alpha < 1.0,
            "significance level must be in (0,1)");
  SDS_CHECK(params.consecutive_rejections >= 1,
            "need at least one rejection");
  SDS_CHECK(params.initial_offset >= 0 && params.initial_offset < params.l_r,
            "grid offset must be within one L_R interval");
  SDS_CHECK(!ident.enabled || ident.window > 0,
            "bad identification window");
  local_tick_ = params.initial_offset;
}

void KsTestDetector::StartReference() {
  if (source_.started()) source_.Stop();  // abort a monitored collection
  state_ = State::kCollectingReference;
  collected_ = 0;
  collect_elapsed_ = 0;
  staging_access_.clear();
  staging_miss_.clear();
  hypervisor_.ThrottleAllExcept(source_.target(), params_.w_r);
  source_.Start();
  gate_.OnSessionStart();
  TraceDetect("reference_start", source_.target(), "window",
              static_cast<double>(params_.w_r));
}

void KsTestDetector::StartMonitored() {
  state_ = State::kCollectingMonitored;
  collected_ = 0;
  collect_elapsed_ = 0;
  staging_access_.clear();
  staging_miss_.clear();
  source_.Start();
  gate_.OnSessionStart();
}

void KsTestDetector::FinishReference() {
  source_.Stop();
  state_ = State::kIdle;
  ref_access_ = staging_access_;
  ref_miss_ = staging_miss_;
  reference_ready_ = true;
  // Decisions against the previous reference are not comparable with
  // decisions against the new one: restart the consecutive counts.
  consecutive_access_ = 0;
  consecutive_miss_ = 0;
  TraceDetect("reference_ready", source_.target(), "samples",
              static_cast<double>(ref_access_.size()));
}

void KsTestDetector::FinishMonitored() {
  source_.Stop();
  state_ = State::kIdle;

  KsDecision d;
  d.tick = hypervisor_.now();
  const auto res_access = TwoSampleKsTest(ref_access_, staging_access_);
  const auto res_miss = TwoSampleKsTest(ref_miss_, staging_miss_);
  d.statistic_access = res_access.statistic;
  d.rejected_access = res_access.p_value < params_.alpha;
  d.statistic_miss = res_miss.statistic;
  d.rejected_miss = res_miss.p_value < params_.alpha;
  decisions_.push_back(d);

  consecutive_access_ = d.rejected_access ? consecutive_access_ + 1 : 0;
  consecutive_miss_ = d.rejected_miss ? consecutive_miss_ + 1 : 0;
  const int audit_consecutive_access = consecutive_access_;
  const int audit_consecutive_miss = consecutive_miss_;

  // A fully passing test clears any standing alarm: the statistics are back
  // to the reference distribution.
  if (!d.rejected_access && !d.rejected_miss) identified_alarm_ = false;

  const bool suspicion_access =
      consecutive_access_ >= params_.consecutive_rejections;
  const bool suspicion_miss =
      consecutive_miss_ >= params_.consecutive_rejections;
  if (suspicion_access || suspicion_miss) {
    suspicion_tick_ = hypervisor_.now();
    if (ident_.enabled) {
      sweep_on_access_ = suspicion_access;
      sweep_on_miss_ = suspicion_miss;
      StartIdentification();
    } else {
      identified_alarm_ = true;
      ++alarm_events_;
      last_trigger_ = suspicion_tick_;
    }
    consecutive_access_ = 0;
    consecutive_miss_ = 0;
  }

  attack_active_ = identified_alarm_;

  // Audit both channels once the decision (and any resulting alarm state
  // short of a pending identification sweep) is settled.
  AuditKsDecision("AccessNum", res_access.p_value, res_access.statistic,
                  audit_consecutive_access);
  AuditKsDecision("MissNum", res_miss.p_value, res_miss.statistic,
                  audit_consecutive_miss);
}

void KsTestDetector::StartIdentification() {
  ++sweeps_;
  TraceDetect("identification_start", source_.target(), "sweep",
              static_cast<double>(sweeps_));
  candidates_.clear();
  for (OwnerId id = 1; id <= hypervisor_.vm_count(); ++id) {
    if (id != source_.target()) candidates_.push_back(id);
  }
  candidate_index_ = 0;
  candidate_results_.clear();
  if (candidates_.empty()) {
    // Nothing co-located: the anomaly cannot be another tenant, but the
    // statistics are persistently wrong — raise the (unattributed) alarm.
    FinishIdentification();
    return;
  }
  StartNextCandidate();
}

void KsTestDetector::StartNextCandidate() {
  const OwnerId candidate = candidates_[candidate_index_];
  hypervisor_.ThrottleVm(candidate, kIdentifySettleTicks + ident_.window);
  settle_left_ = kIdentifySettleTicks;
  staging_access_.clear();
  staging_miss_.clear();
  collected_ = 0;
  collect_elapsed_ = 0;
  state_ = State::kIdentifySettling;
}

void KsTestDetector::FinishCandidate() {
  source_.Stop();
  // Does pausing this candidate restore the reference distribution on the
  // channel(s) that raised the suspicion?
  CandidateResult result;
  result.vm = candidates_[candidate_index_];
  result.p_value = 2.0;   // min() below picks the worst channel
  result.statistic = 0.0; // max() below picks the worst channel
  if (sweep_on_access_) {
    const auto r = TwoSampleKsTest(ref_access_, staging_access_);
    result.p_value = std::min(result.p_value, r.p_value);
    result.statistic = std::max(result.statistic, r.statistic);
  }
  if (sweep_on_miss_) {
    const auto r = TwoSampleKsTest(ref_miss_, staging_miss_);
    result.p_value = std::min(result.p_value, r.p_value);
    result.statistic = std::max(result.statistic, r.statistic);
  }
  candidate_results_.push_back(result);
  TraceDetect("candidate_result", result.vm, "p_value", result.p_value);
  if (++candidate_index_ >= candidates_.size()) {
    FinishIdentification();
  } else {
    StartNextCandidate();
  }
}

void KsTestDetector::FinishIdentification() {
  state_ = State::kIdle;
  // Attributed when some candidate's pause restored normality. Two rules:
  //   * absolute — the throttled-candidate window passes the KS test
  //     against the reference; or
  //   * relative — its KS statistic is clearly smaller than every other
  //     candidate's (the stale reference may have drifted, but pausing the
  //     real attacker makes that window a clear outlier among the sweeps).
  // The alarm is raised either way — the contention is real even if no
  // single culprit emerged (e.g. colluding VMs).
  identified_attacker_ = 0;
  if (!candidate_results_.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < candidate_results_.size(); ++i) {
      if (candidate_results_[i].statistic <
          candidate_results_[best].statistic) {
        best = i;
      }
    }
    double second = 1.0;
    for (std::size_t i = 0; i < candidate_results_.size(); ++i) {
      if (i != best) second = std::min(second, candidate_results_[i].statistic);
    }
    const auto& winner = candidate_results_[best];
    if (winner.p_value >= params_.alpha ||
        winner.statistic < 0.6 * second) {
      identified_attacker_ = winner.vm;
    }
  }
  identified_alarm_ = true;
  attack_active_ = true;
  ++alarm_events_;
  last_trigger_ = suspicion_tick_;
  TraceDetect("alarm_raised",
              identified_attacker_ == 0
                  ? -1
                  : static_cast<std::int64_t>(identified_attacker_),
              "suspicion_tick", static_cast<double>(suspicion_tick_));
}

void KsTestDetector::CollectTick() {
  ++collect_elapsed_;
  const DegradingSampleGate::Outcome out = gate_.OnTick();
  if (out.rewarm) {
    // The source was re-baselined (or a long gap severed the stream):
    // pre-gap staging no longer connects to what follows.
    staging_access_.clear();
    staging_miss_.clear();
    collected_ = 0;
  }
  if (out.sample) {
    staging_access_.push_back(static_cast<double>(out.sample->access_num));
    staging_miss_.push_back(static_cast<double>(out.sample->miss_num));
    ++collected_;
  } else {
    // Gap tick: the collection extends past its nominal window, so re-arm
    // the throttle that defines its measurement conditions.
    if (state_ == State::kCollectingReference) {
      hypervisor_.ThrottleAllExcept(source_.target(),
                                    params_.w_r - collected_ + 1);
    } else if (state_ == State::kIdentifyCollecting) {
      hypervisor_.ThrottleVm(candidates_[candidate_index_],
                             ident_.window - collected_ + 1);
    }
  }

  const Tick window = state_ == State::kCollectingReference ? params_.w_r
                      : state_ == State::kCollectingMonitored
                          ? params_.w_m
                          : ident_.window;
  if (collected_ >= window) {
    if (state_ == State::kCollectingReference) {
      FinishReference();
    } else if (state_ == State::kCollectingMonitored) {
      FinishMonitored();
    } else {
      FinishCandidate();
    }
  } else if (collect_elapsed_ >= kCollectSlackFactor * window) {
    // Out of slack. A monitored/candidate window that is at least half full
    // still supports a (weaker) KS decision; anything less — and any
    // partial reference, which must be a full clean window — is abandoned.
    if (state_ != State::kCollectingReference && collected_ >= (window + 1) / 2) {
      if (state_ == State::kCollectingMonitored) {
        FinishMonitored();
      } else {
        FinishCandidate();
      }
    } else {
      AbandonCollection();
    }
  }
}

void KsTestDetector::AbandonCollection() {
  if (source_.started()) source_.Stop();
  const auto collected = static_cast<double>(collected_);
  switch (state_) {
    case State::kCollectingReference:
      // Keep the previous reference (stale beats absent); the next L_R tick
      // retries.
      ++abandoned_references_;
      TraceDetect("reference_abandoned", source_.target(), "collected",
                  collected);
      state_ = State::kIdle;
      break;
    case State::kCollectingMonitored:
      // No decision this round: consecutive counters are left untouched.
      ++abandoned_monitored_;
      TraceDetect("monitored_abandoned", source_.target(), "collected",
                  collected);
      state_ = State::kIdle;
      break;
    case State::kIdentifyCollecting: {
      // An unmeasurable candidate cannot be exonerated: score it
      // inconclusive-worst so attribution never lands on it by default.
      ++abandoned_candidates_;
      CandidateResult result;
      result.vm = candidates_[candidate_index_];
      result.p_value = 0.0;
      result.statistic = 1.0;
      candidate_results_.push_back(result);
      TraceDetect("candidate_abandoned", result.vm, "collected", collected);
      if (++candidate_index_ >= candidates_.size()) {
        FinishIdentification();
      } else {
        StartNextCandidate();
      }
      break;
    }
    default:
      break;
  }
}

void KsTestDetector::OnTick() {
  SDS_PROFILE_SPAN(prof_, span_tick_);
  switch (state_) {
    case State::kCollectingReference:
    case State::kCollectingMonitored:
    case State::kIdentifyCollecting:
      CollectTick();
      break;
    case State::kIdentifySettling: {
      if (--settle_left_ <= 0) {
        state_ = State::kIdentifyCollecting;
        collect_elapsed_ = 0;
        source_.Start();
        gate_.OnSessionStart();
      }
      break;
    }
    case State::kIdle:
      break;
  }

  ++local_tick_;

  // Schedule the next collection. The reference refresh takes priority over
  // monitored tests but never interrupts itself or an identification sweep.
  const bool busy = state_ == State::kCollectingReference ||
                    state_ == State::kIdentifySettling ||
                    state_ == State::kIdentifyCollecting;
  if (!busy && local_tick_ % params_.l_r == 0) {
    StartReference();
  } else if (state_ == State::kIdle && reference_ready_ &&
             local_tick_ % params_.l_m == 0) {
    StartMonitored();
  }
}
}  // namespace sds::detect
