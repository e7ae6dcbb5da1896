#include "cluster/host_lifecycle.h"

#include "common/check.h"

namespace sds::cluster {

namespace {
// Degraded-mode window (inclusive range, drawn per degrade event; also the
// length of a scheduled degrade that gives no duration).
constexpr Tick kDegradeMinTicks = 100;
constexpr Tick kDegradeMaxTicks = 600;
}  // namespace

const char* HostStateName(HostState state) {
  switch (state) {
    case HostState::kUp:
      return "up";
    case HostState::kDegraded:
      return "degraded";
    case HostState::kDown:
      return "down";
    case HostState::kRecovering:
      return "recovering";
    case HostState::kDead:
      return "dead";
  }
  return "?";
}

HostLifecycle::HostLifecycle(int hosts, const fault::HostFaultPlan& plan)
    : plan_(plan), rng_(plan.seed) {
  SDS_CHECK(hosts >= 1, "lifecycle needs at least one host");
  SDS_CHECK(plan_.down_min_ticks > 0 &&
                plan_.down_max_ticks >= plan_.down_min_ticks,
            "bad down-window range");
  SDS_CHECK(plan_.degrade_stride >= 2, "degrade stride must be >= 2");
  SDS_CHECK(plan_.recovery_min_ticks >= 0 &&
                plan_.recovery_max_ticks >= plan_.recovery_min_ticks,
            "bad recovery-latency range");
  plan_.CheckRates();
  for (const fault::ScheduledHostFault& f : plan_.scheduled) {
    SDS_CHECK(f.host >= 0 && f.host < hosts, "scheduled fault: no such host");
    SDS_CHECK(f.kind != fault::HostFaultKind::kFlakyRecovery,
              "flaky recovery is per-attempt; it cannot be scheduled");
    SDS_CHECK(f.duration >= 0, "scheduled fault duration must be >= 0");
  }
  states_.assign(static_cast<std::size_t>(hosts), HostState::kUp);
  until_.assign(static_cast<std::size_t>(hosts), 0);
  degrade_entered_.assign(static_cast<std::size_t>(hosts), 0);
}

void HostLifecycle::Transition(Tick now, int host, HostState to) {
  auto& state = states_[static_cast<std::size_t>(host)];
  if (state == to) return;
  transitions_.push_back(HostTransition{now, host, state, to});
  state = to;
}

void HostLifecycle::EnterDown(Tick now, int host, Tick duration) {
  until_[static_cast<std::size_t>(host)] = now + duration;
  ++stats_.crashes;
  Transition(now, host, HostState::kDown);
}

void HostLifecycle::BeginTick(Tick now) {
  now_ = now;
  if (!plan_.enabled()) return;
  using K = fault::HostFaultKind;

  // Scheduled faults first — deterministic, no RNG consumed.
  for (const fault::ScheduledHostFault& f : plan_.scheduled) {
    if (f.tick != now) continue;
    const auto h = static_cast<std::size_t>(f.host);
    if (states_[h] == HostState::kDead) continue;
    ++stats_.injected[static_cast<std::size_t>(f.kind)];
    switch (f.kind) {
      case K::kCrash:
        EnterDown(now, f.host,
                  f.duration > 0 ? f.duration : plan_.down_min_ticks);
        break;
      case K::kDegrade:
        if (states_[h] == HostState::kUp) {
          until_[h] =
              now + (f.duration > 0 ? f.duration : kDegradeMinTicks);
          degrade_entered_[h] = now;
          ++stats_.degraded_windows;
          Transition(now, f.host, HostState::kDegraded);
        }
        break;
      case K::kPermanentDeath:
        ++stats_.permanent_deaths;
        Transition(now, f.host, HostState::kDead);
        break;
      case K::kFlakyRecovery:
      case K::kKindCount:
        break;  // rejected in the constructor
    }
  }

  for (int host = 0; host < host_count(); ++host) {
    const auto h = static_cast<std::size_t>(host);
    switch (states_[h]) {
      case HostState::kDead:
        ++stats_.down_ticks;
        break;
      case HostState::kDown:
        if (now >= until_[h]) {
          ++stats_.recovery_attempts;
          const Tick latency = plan_.recovery_max_ticks > 0
                                   ? rng_.UniformInt(plan_.recovery_min_ticks,
                                                     plan_.recovery_max_ticks)
                                   : 0;
          until_[h] = now + latency;
          Transition(now, host, HostState::kRecovering);
          if (latency == 0) {
            // Zero-latency recovery resolves this tick; fall through to the
            // recovering arm below by re-running the switch logic inline.
            const double flaky = plan_.rate(K::kFlakyRecovery);
            if (flaky > 0.0 && rng_.Bernoulli(flaky)) {
              ++stats_.recovery_failures;
              ++stats_.injected[static_cast<std::size_t>(K::kFlakyRecovery)];
              EnterDown(now, host,
                        rng_.UniformInt(plan_.down_min_ticks,
                                        plan_.down_max_ticks));
            } else {
              Transition(now, host, HostState::kUp);
              break;
            }
          }
        }
        ++stats_.down_ticks;
        break;
      case HostState::kRecovering:
        if (now >= until_[h]) {
          const double flaky = plan_.rate(K::kFlakyRecovery);
          if (flaky > 0.0 && rng_.Bernoulli(flaky)) {
            ++stats_.recovery_failures;
            ++stats_.injected[static_cast<std::size_t>(K::kFlakyRecovery)];
            EnterDown(now, host,
                      rng_.UniformInt(plan_.down_min_ticks,
                                      plan_.down_max_ticks));
            ++stats_.down_ticks;
          } else {
            Transition(now, host, HostState::kUp);
          }
          break;
        }
        ++stats_.down_ticks;
        break;
      case HostState::kDegraded:
        if (now >= until_[h]) {
          Transition(now, host, HostState::kUp);
        } else if ((now - degrade_entered_[h]) % plan_.degrade_stride != 0) {
          ++stats_.degraded_skipped;
        }
        break;
      case HostState::kUp: {
        // Bernoulli draws in a fixed kind order; the first hit wins but
        // every applicable kind consumes its draw, so outcomes never shift
        // the stream (same discipline as the Actuator).
        bool hit = false;
        for (std::size_t k = 0; k < fault::kHostFaultKindCount; ++k) {
          const auto kind = static_cast<K>(k);
          if (kind == K::kFlakyRecovery) continue;  // per-attempt, not here
          const double r = plan_.rate(kind);
          if (r <= 0.0 || !rng_.Bernoulli(r)) continue;
          if (hit) continue;
          hit = true;
          ++stats_.injected[k];
          switch (kind) {
            case K::kCrash:
              EnterDown(now, host,
                        rng_.UniformInt(plan_.down_min_ticks,
                                        plan_.down_max_ticks));
              ++stats_.down_ticks;
              break;
            case K::kDegrade:
              until_[h] =
                  now + rng_.UniformInt(kDegradeMinTicks, kDegradeMaxTicks);
              degrade_entered_[h] = now;
              ++stats_.degraded_windows;
              Transition(now, host, HostState::kDegraded);
              break;
            case K::kPermanentDeath:
              ++stats_.permanent_deaths;
              Transition(now, host, HostState::kDead);
              ++stats_.down_ticks;
              break;
            case K::kFlakyRecovery:
            case K::kKindCount:
              break;
          }
        }
        break;
      }
    }
  }
}

bool HostLifecycle::serving(int host) const {
  SDS_CHECK(host >= 0 && host < host_count(), "no such host");
  const auto h = static_cast<std::size_t>(host);
  switch (states_[h]) {
    case HostState::kUp:
      return true;
    case HostState::kDegraded:
      return (now_ - degrade_entered_[h]) % plan_.degrade_stride == 0;
    case HostState::kDown:
    case HostState::kRecovering:
    case HostState::kDead:
      return false;
  }
  return false;
}

bool HostLifecycle::placeable(int host) const {
  SDS_CHECK(host >= 0 && host < host_count(), "no such host");
  const HostState s = states_[static_cast<std::size_t>(host)];
  return s == HostState::kUp || s == HostState::kDegraded;
}

HostState HostLifecycle::state(int host) const {
  SDS_CHECK(host >= 0 && host < host_count(), "no such host");
  return states_[static_cast<std::size_t>(host)];
}

int HostLifecycle::up_hosts() const {
  int up = 0;
  for (const HostState s : states_) {
    if (s == HostState::kUp || s == HostState::kDegraded) ++up;
  }
  return up;
}

}  // namespace sds::cluster
