#include "detect/degrade.h"

#include <algorithm>

#include "telemetry/telemetry.h"

namespace sds::detect {

namespace tel = sds::telemetry;

namespace {
// Consecutive missing samples before the watchdog probes a healthy-but-lossy
// source (an unhealthy source is probed at once).
constexpr int kDeadAfterMisses = 5;
// Bounded exponential backoff between restart attempts, in ticks.
constexpr Tick kBackoffInitial = 1;
constexpr Tick kBackoffMax = 64;
}  // namespace

const char* GapPolicyName(GapPolicy policy) {
  switch (policy) {
    case GapPolicy::kHoldLast:
      return "hold_last";
    case GapPolicy::kSkipFreeze:
      return "skip_freeze";
    case GapPolicy::kRewarm:
      return "rewarm";
  }
  return "?";
}

bool SampleIsSane(const pcm::PcmSample& sample, Tick span_ticks) {
  const auto span =
      static_cast<std::uint64_t>(std::max<Tick>(span_ticks, 1));
  // kMaxSampleDeltaPerTick (1e6) * any plausible span stays far from
  // 64-bit overflow; a tampered span cannot reach here (spans come from the
  // sampler's own tick arithmetic).
  const std::uint64_t ceiling = kMaxSampleDeltaPerTick * span;
  if (sample.access_num > ceiling || sample.miss_num > ceiling) return false;
  return sample.miss_num <= sample.access_num;
}

SamplerWatchdog::SamplerWatchdog(pcm::SampleSource& source,
                                 vm::Hypervisor& hypervisor)
    : source_(source), hypervisor_(hypervisor) {}

bool SamplerWatchdog::OnMissing(Tick now) {
  ++miss_streak_;
  // A healthy-but-lossy source is left alone until the streak says the
  // stream is effectively dead; an unhealthy source is probed immediately.
  const bool presumed_dead =
      !source_.healthy() || miss_streak_ >= kDeadAfterMisses;
  if (!presumed_dead) return false;
  if (backoff_ == 0) {
    // First probe of this incident: no waiting.
    backoff_ = kBackoffInitial;
    next_attempt_ = now;
  }
  if (now < next_attempt_) return false;

  ++attempts_;
  tel::Telemetry* t = hypervisor_.telemetry();
  const bool restarted = source_.TryRestart();
  if (t && t->tracer().enabled(tel::Layer::kFault)) {
    t->tracer().Emit(tel::MakeEvent(now, tel::Layer::kFault,
                                    restarted ? "watchdog_restart"
                                              : "watchdog_attempt",
                                    source_.target())
                         .Num("miss_streak", static_cast<double>(miss_streak_))
                         .Num("backoff", static_cast<double>(backoff_)));
  }
  // The backoff grows across ALL attempts of the incident — including
  // "successful" restarts after which the stream stays silent; only a
  // delivered sample (OnDelivered) ends the incident and resets it.
  // Otherwise a source that accepts restarts without resuming delivery
  // would be restarted (and the consumer re-warmed) every few ticks.
  next_attempt_ = now + backoff_;
  backoff_ = std::min(backoff_ * 2, kBackoffMax);
  if (restarted) {
    ++restarts_;
    miss_streak_ = 0;
    return true;
  }
  return false;
}

void SamplerWatchdog::OnDelivered() {
  miss_streak_ = 0;
  backoff_ = 0;
}

void SamplerWatchdog::SaveState(SnapshotWriter& w) const {
  w.I64(miss_streak_);
  w.I64(next_attempt_);
  w.I64(backoff_);
  w.U64(attempts_);
  w.U64(restarts_);
}

bool SamplerWatchdog::RestoreState(SnapshotReader& r) {
  const std::int64_t miss_streak = r.I64();
  const std::int64_t next_attempt = r.I64();
  const std::int64_t backoff = r.I64();
  const std::uint64_t attempts = r.U64();
  const std::uint64_t restarts = r.U64();
  if (!r.ok() || miss_streak < 0 || backoff < 0) return false;
  miss_streak_ = static_cast<int>(miss_streak);
  next_attempt_ = static_cast<Tick>(next_attempt);
  backoff_ = static_cast<Tick>(backoff);
  attempts_ = attempts;
  restarts_ = restarts;
  return true;
}

DegradingSampleGate::DegradingSampleGate(vm::Hypervisor& hypervisor,
                                         pcm::SampleSource& source,
                                         const DegradeConfig& config,
                                         const char* consumer)
    : hypervisor_(hypervisor),
      source_(source),
      config_(config),
      consumer_(consumer),
      watchdog_(source, hypervisor) {}

void DegradingSampleGate::EmitDegrade(Tick tick, const char* action,
                                      double value, double bound,
                                      bool violation) {
  tel::Telemetry* t = hypervisor_.telemetry();
  if (!t) return;
  if (t->tracer().enabled(tel::Layer::kFault)) {
    t->tracer().Emit(tel::MakeEvent(tick, tel::Layer::kFault, action,
                                    source_.target())
                         .Str("consumer", consumer_)
                         .Num("value", value)
                         .Num("bound", bound));
  }
  // Degradation actions ride the same audit stream as detector decisions so
  // a recall/delay shift under faults can be explained record by record.
  tel::AuditRecord r;
  r.tick = tick;
  r.detector = consumer_;
  r.check = "degrade";
  r.channel = action;
  r.value = value;
  r.upper = bound;
  r.violation = violation;
  r.consecutive = static_cast<int>(std::min<Tick>(gap_run_, 1'000'000));
  t->audit().Append(r);
}

DegradingSampleGate::Outcome DegradingSampleGate::OnTick() {
  Outcome out;
  const Tick now = hypervisor_.now();
  std::optional<pcm::PcmSample> raw = source_.Next();

  bool usable = false;
  pcm::PcmSample s;
  if (raw.has_value()) {
    out.delivered = true;
    const Tick span = std::max<Tick>(source_.last_span(), 1);
    if (!SampleIsSane(*raw, span)) {
      // Quarantine: the sample is corrupt by construction; treat the tick
      // as a gap so the gap policy decides what the analyzers see.
      ++stats_.quarantined;
      out.quarantined = true;
      EmitDegrade(now, "quarantine",
                  static_cast<double>(
                      std::max(raw->access_num, raw->miss_num)),
                  static_cast<double>(kMaxSampleDeltaPerTick) *
                      static_cast<double>(span),
                  true);
    } else {
      s = *raw;
      if (span > 1) {
        // The delta coalesced `span` intervals; feed the per-interval
        // average so one wide sample does not read as a burst.
        s.access_num /= static_cast<std::uint64_t>(span);
        s.miss_num /= static_cast<std::uint64_t>(span);
      }
      usable = true;
    }
  }

  if (!usable) {
    ++gap_run_;
    ++stats_.gap_ticks;
    if (watchdog_.OnMissing(now)) {
      // Successful restart re-baselined the source. Under kHoldLast the
      // substitute stream stayed continuous (per-interval values on both
      // sides of the gap are the same units), so the analyzers keep their
      // state; the other policies left a real discontinuity in the
      // analyzer windows and get a fresh warm-up.
      if (config_.gap_policy != GapPolicy::kHoldLast) {
        out.rewarm = true;
        rewarm_pending_ = false;
        ++stats_.rewarms;
        EmitDegrade(now, "rewarm", static_cast<double>(gap_run_),
                    static_cast<double>(kRewarmGap), false);
      }
    } else if (config_.gap_policy == GapPolicy::kRewarm && !rewarm_pending_ &&
               gap_run_ >= kRewarmGap) {
      // Long gap: schedule one re-warm; it fires now so the consumer can
      // discard its half-filled windows, and is not repeated while the same
      // gap keeps running.
      out.rewarm = true;
      rewarm_pending_ = true;
      ++stats_.rewarms;
      EmitDegrade(now, "rewarm", static_cast<double>(gap_run_),
                  static_cast<double>(kRewarmGap), false);
    }
    if (config_.gap_policy == GapPolicy::kHoldLast && last_good_.has_value()) {
      pcm::PcmSample held = *last_good_;
      held.tick = now;
      out.sample = held;
      out.substituted = true;
      ++stats_.substituted;
    }
    stats_.watchdog_attempts = watchdog_.attempts();
    stats_.watchdog_restarts = watchdog_.restarts();
    return out;
  }

  ++stats_.delivered;
  gap_run_ = 0;
  rewarm_pending_ = false;
  watchdog_.OnDelivered();
  last_good_ = s;
  out.sample = s;
  stats_.watchdog_attempts = watchdog_.attempts();
  stats_.watchdog_restarts = watchdog_.restarts();
  return out;
}

void DegradingSampleGate::SaveState(SnapshotWriter& w) const {
  w.U32(static_cast<std::uint32_t>(config_.gap_policy));
  watchdog_.SaveState(w);
  w.Bool(last_good_.has_value());
  if (last_good_.has_value()) {
    w.I64(last_good_->tick);
    w.U64(last_good_->access_num);
    w.U64(last_good_->miss_num);
  }
  w.I64(gap_run_);
  w.Bool(rewarm_pending_);
  w.U64(stats_.delivered);
  w.U64(stats_.gap_ticks);
  w.U64(stats_.quarantined);
  w.U64(stats_.substituted);
  w.U64(stats_.rewarms);
  w.U64(stats_.watchdog_attempts);
  w.U64(stats_.watchdog_restarts);
}

bool DegradingSampleGate::RestoreState(SnapshotReader& r) {
  const std::uint32_t policy = r.U32();
  if (!r.ok() || policy != static_cast<std::uint32_t>(config_.gap_policy)) {
    return false;
  }
  if (!watchdog_.RestoreState(r)) return false;
  std::optional<pcm::PcmSample> last_good;
  if (r.Bool()) {
    pcm::PcmSample s;
    s.tick = static_cast<Tick>(r.I64());
    s.access_num = r.U64();
    s.miss_num = r.U64();
    last_good = s;
  }
  const std::int64_t gap_run = r.I64();
  const bool rewarm_pending = r.Bool();
  DegradeStats stats;
  stats.delivered = r.U64();
  stats.gap_ticks = r.U64();
  stats.quarantined = r.U64();
  stats.substituted = r.U64();
  stats.rewarms = r.U64();
  stats.watchdog_attempts = r.U64();
  stats.watchdog_restarts = r.U64();
  if (!r.ok() || gap_run < 0) return false;
  last_good_ = last_good;
  gap_run_ = static_cast<Tick>(gap_run);
  rewarm_pending_ = rewarm_pending;
  stats_ = stats;
  return true;
}

void DegradingSampleGate::OnSessionStart() {
  last_good_.reset();
  gap_run_ = 0;
  rewarm_pending_ = false;
}

}  // namespace sds::detect
