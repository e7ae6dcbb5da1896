#include "fault/fault_injector.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/check.h"
#include "telemetry/telemetry.h"

namespace sds::fault {

namespace tel = sds::telemetry;

namespace {
// Duration ranges (inclusive) for the windowed kinds when drawn
// stochastically.
constexpr Tick kOutageMinTicks = 5;
constexpr Tick kOutageMaxTicks = 50;
constexpr Tick kDeathMinTicks = 50;
constexpr Tick kDeathMaxTicks = 400;
constexpr Tick kSaturationMinTicks = 10;
constexpr Tick kSaturationMaxTicks = 100;
}  // namespace

FaultInjector::FaultInjector(vm::Hypervisor& hypervisor, OwnerId target,
                             const FaultPlan& plan)
    : hypervisor_(hypervisor),
      target_(target),
      plan_(plan),
      rng_(plan.seed),
      inner_(hypervisor, target) {
  plan_.CheckRates();
  if (tel::Telemetry* t = hypervisor_.telemetry()) {
    for (std::size_t k = 0; k < kFaultKindCount; ++k) {
      t_injected_[k] = t->metrics().GetCounter(
          std::string("fault.injected.") +
          FaultKindName(static_cast<FaultKind>(k)));
    }
    t_missing_ = t->metrics().GetCounter("fault.missing_ticks");
  }
}

void FaultInjector::Start() {
  SDS_CHECK(!started_, "fault injector already started");
  started_ = true;
  if (!dead_ && !inner_.started()) inner_.Start();
}

void FaultInjector::Stop() {
  SDS_CHECK(started_, "fault injector not started");
  started_ = false;
  if (inner_.started()) inner_.Stop();
}

void FaultInjector::RecordInjection(FaultKind kind, Tick now, double detail) {
  const auto k = static_cast<std::size_t>(kind);
  ++stats_.injected[k];
  if (t_injected_[k]) t_injected_[k]->Add();
  tel::Telemetry* t = hypervisor_.telemetry();
  if (t && t->tracer().enabled(tel::Layer::kFault)) {
    t->tracer().Emit(tel::MakeEvent(now, tel::Layer::kFault,
                                    FaultKindName(kind), target_)
                         .Num("detail", detail));
  }
}

void FaultInjector::OpenWindow(FaultKind kind, Tick now, Tick duration) {
  switch (kind) {
    case FaultKind::kOutage:
      outage_until_ = std::max(outage_until_, now + duration);
      break;
    case FaultKind::kSamplerDeath:
      dead_ = true;
      dead_until_ = std::max(dead_until_, now + duration);
      if (inner_.started()) inner_.Stop();
      break;
    case FaultKind::kSaturation:
      saturation_until_ = std::max(saturation_until_, now + duration);
      break;
    default:
      break;
  }
}

std::optional<FaultKind> FaultInjector::DecideFault(Tick now) {
  std::optional<FaultKind> hit;

  // Scheduled faults bind when the monitoring plane is actually read at or
  // after their tick; window kinds measure their duration from the
  // scheduled tick (wall-tick time), not from the read that applied them.
  while (next_scheduled_ < plan_.scheduled.size() &&
         plan_.scheduled[next_scheduled_].tick <= now) {
    const ScheduledFault& sf = plan_.scheduled[next_scheduled_];
    ++next_scheduled_;
    switch (sf.kind) {
      case FaultKind::kOutage:
      case FaultKind::kSaturation:
      case FaultKind::kSamplerDeath: {
        const Tick until = sf.tick + std::max<Tick>(sf.duration, 1);
        if (until <= now && sf.kind != FaultKind::kSamplerDeath) continue;
        RecordInjection(sf.kind, now, static_cast<double>(sf.duration));
        if (sf.kind == FaultKind::kSamplerDeath) {
          dead_ = true;
          dead_until_ = std::max(dead_until_, until);
          if (inner_.started()) inner_.Stop();
        } else if (sf.kind == FaultKind::kOutage) {
          outage_until_ = std::max(outage_until_, until);
        } else {
          saturation_until_ = std::max(saturation_until_, until);
        }
        break;
      }
      default:
        RecordInjection(sf.kind, now, 0.0);
        if (!hit) hit = sf.kind;
        break;
    }
  }

  // Stochastic draws: one Bernoulli per enabled kind per tick, in enum
  // order, independent of outcomes — keeps the RNG stream (and therefore
  // the whole injected-fault schedule) deterministic. The first hit in enum
  // order wins the tick; window kinds open their window either way.
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    const double r = plan_.rate(kind);
    if (r <= 0.0 || !rng_.Bernoulli(r)) continue;
    Tick duration = 0;
    switch (kind) {
      case FaultKind::kOutage:
        duration = rng_.UniformInt(kOutageMinTicks, kOutageMaxTicks);
        break;
      case FaultKind::kSamplerDeath:
        duration = rng_.UniformInt(kDeathMinTicks, kDeathMaxTicks);
        break;
      case FaultKind::kSaturation:
        duration = rng_.UniformInt(kSaturationMinTicks, kSaturationMaxTicks);
        break;
      default:
        break;
    }
    RecordInjection(kind, now, static_cast<double>(duration));
    OpenWindow(kind, now, duration);
    if (!hit) hit = kind;
  }
  return hit;
}

pcm::PcmSample FaultInjector::Tamper(FaultKind kind, pcm::PcmSample s) {
  ++stats_.tampered_samples;
  switch (kind) {
    case FaultKind::kCounterReset: {
      // A delta computed across a counter reset: new_cumulative (small) minus
      // stale baseline (large) wraps around the 64-bit space.
      constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
      s.access_num = kMax - s.access_num;
      s.miss_num = kMax - s.miss_num;
      break;
    }
    case FaultKind::kSaturation:
      s.access_num = std::min(s.access_num, plan_.saturation_cap);
      s.miss_num = std::min(s.miss_num, plan_.saturation_cap);
      break;
    case FaultKind::kCorruption:
      if (rng_.Bernoulli(0.5)) {
        // Zeroed read: plausible but wrong.
        s.access_num = 0;
        s.miss_num = 0;
      } else {
        // High bit flip: absurd value the sanity gate must catch.
        s.access_num ^= std::uint64_t{1}
                        << (40 + rng_.UniformInt(std::uint64_t{16}));
      }
      break;
    default:
      break;
  }
  return s;
}

std::optional<pcm::PcmSample> FaultInjector::Next() {
  SDS_CHECK(started_, "fault injector not started");
  const Tick now = hypervisor_.now();
  const auto fault = DecideFault(now);

  const auto missing = [&]() -> std::optional<pcm::PcmSample> {
    ++stats_.missing_ticks;
    if (t_missing_) t_missing_->Add();
    return std::nullopt;
  };

  if (dead_ || now < outage_until_) return missing();

  if (fault == FaultKind::kDropSample) {
    // The read happened (delta consumed) but the sample never arrives.
    if (inner_.started()) (void)inner_.Sample();
    return missing();
  }
  if (fault == FaultKind::kCoalesce) {
    // The read is skipped; PcmSampler's missed-tick tolerance folds this
    // interval into the next delivered delta.
    return missing();
  }

  if (!inner_.started()) inner_.Start();
  pcm::PcmSample s = inner_.Sample();
  if (fault == FaultKind::kCounterReset || fault == FaultKind::kCorruption) {
    s = Tamper(*fault, s);
  } else if (now < saturation_until_) {
    s = Tamper(FaultKind::kSaturation, s);
  }
  return s;
}

bool FaultInjector::TryRestart() {
  ++stats_.restart_attempts;
  const Tick now = hypervisor_.now();
  tel::Telemetry* t = hypervisor_.telemetry();
  if (dead_ && now < dead_until_) {
    ++stats_.restarts_denied;
    if (t && t->tracer().enabled(tel::Layer::kFault)) {
      t->tracer().Emit(tel::MakeEvent(now, tel::Layer::kFault,
                                      "restart_denied", target_)
                           .Num("dead_for", static_cast<double>(
                                                dead_until_ - now)));
    }
    return false;
  }
  dead_ = false;
  // Restarting the agent also un-wedges a transient outage: the stuck read
  // loop is replaced, so delivery resumes immediately.
  outage_until_ = 0;
  if (started_) {
    // Re-baseline: deltas never span the dead window.
    if (inner_.started()) inner_.Stop();
    inner_.Start();
  }
  ++stats_.restarts;
  if (t && t->tracer().enabled(tel::Layer::kFault)) {
    t->tracer().Emit(
        tel::MakeEvent(now, tel::Layer::kFault, "sampler_restarted", target_));
  }
  return true;
}

}  // namespace sds::fault
