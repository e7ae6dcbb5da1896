// The one plan shape of the monitoring, actuation and host fault planes.
//
// A plan is plain data: a seed for its consumer's private RNG stream (never
// the simulation's, so a sweep perturbs one plane without changing the
// workload or attack under it), one injection probability per kind, and the
// plane's own fields. Each plane is a catalog: a kind enum ending in
// kKindCount and a PlanFields<Kind> specialization holding the plane's own
// fields, its default seed, its kind names, and extra_enabled() (what
// besides a nonzero rate makes the plan perturb anything). A
// default-constructed plan is inert and its consumer bit-transparent.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/check.h"

namespace sds::fault {

template <typename Kind>
struct PlanFields;

template <typename Kind>
struct Plan : PlanFields<Kind> {
  // Seed of the consumer's private RNG stream.
  std::uint64_t seed = PlanFields<Kind>::kDefaultSeed;

  // Injection probability per kind; the catalog says what one draw is.
  std::array<double, static_cast<std::size_t>(Kind::kKindCount)> rates{};

  double rate(Kind kind) const {
    return rates[static_cast<std::size_t>(kind)];
  }
  void set_rate(Kind kind, double r) {
    rates[static_cast<std::size_t>(kind)] = r;
  }

  // True when the plan can perturb anything at all.
  bool enabled() const {
    if (this->extra_enabled()) return true;
    for (const double r : rates) {
      if (r > 0.0) return true;
    }
    return false;
  }

  // Every consumer calls this before its first draw.
  void CheckRates() const {
    for (const double r : rates) {
      SDS_CHECK(r >= 0.0 && r <= 1.0, "fault rate must be a probability");
    }
  }

  // A plan injecting exactly one kind at `rate`; every other field keeps
  // its default.
  static Plan Single(Kind kind, double rate, std::uint64_t seed) {
    Plan plan;
    plan.seed = seed;
    plan.set_rate(kind, rate);
    return plan;
  }
};

// The stable name of `kind` (metrics, trace events and BENCH payloads use
// it); "?" for a value outside the catalog.
template <typename Kind>
const char* KindName(Kind kind) {
  const auto k = static_cast<std::size_t>(kind);
  const auto& names = PlanFields<Kind>::kNames;
  return k < names.size() ? names[k] : "?";
}

// Per-kind injection counts, the base of every plane's stats struct.
template <typename Kind>
struct InjectedCounts {
  std::array<std::uint64_t, static_cast<std::size_t>(Kind::kKindCount)>
      injected{};

  std::uint64_t injected_total() const {
    std::uint64_t sum = 0;
    for (const auto v : injected) sum += v;
    return sum;
  }
};

}  // namespace sds::fault
