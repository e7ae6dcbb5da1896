// Host state machine (DESIGN.md §17): up → degraded → down → recovering →
// up, plus permanent death, driven by a deterministic fault::HostFaultPlan.
//
// The lifecycle is attached to a Cluster (Cluster::AttachLifecycle); the
// cluster calls BeginTick() once per tick BEFORE ticking hosts and then
// skips every host whose serving() is false — a down host's machine simply
// freezes (its VMs keep their state but make no progress), which is what
// makes stop-and-restart evacuation of a dead host meaningful. With a null
// plan BeginTick returns immediately and every host serves every tick, so
// the attachment is bit-transparent (pinned by
// tests/integration/hostchaos_transparency_test).
//
// Threading: lifecycle state has single-thread shard affinity — the tick
// loop that owns the cluster owns this object too, so fields are annotated
// SDS_SHARD_OWNED (ROADMAP item 1: annotate shard state as it is written)
// and sdslint's conc-shard-owned rule keeps lock acquisitions out.
#pragma once

#include <cstdint>
#include <vector>

#include "common/annotations.h"
#include "common/rng.h"
#include "common/types.h"
#include "fault/host_plan.h"

namespace sds::cluster {

enum class HostState : std::uint8_t {
  kUp,          // serving every tick
  kDegraded,    // serving one tick in degrade_stride, for a window
  kDown,        // not serving; will enter recovery when the window expires
  kRecovering,  // not serving; scheduled recovery latency before kUp
  kDead,        // permanently down
};

const char* HostStateName(HostState state);

// One state transition, in tick order — the host up/down timeline consumed
// by tools/inspect --hostchaos.
struct HostTransition {
  Tick tick = 0;
  int host = 0;
  HostState from = HostState::kUp;
  HostState to = HostState::kUp;
};

class HostLifecycle {
 public:
  explicit HostLifecycle(int hosts, const fault::HostFaultPlan& plan = {});

  // Advances every host's state machine to `now`. Called by
  // Cluster::RunTick before any host ticks; calling it directly as well is
  // a bug (double fault draws). Draw order is fixed: scheduled faults
  // first, then per-host Bernoulli draws in host order, kinds in enum
  // order, so the fault schedule is a pure function of the plan.
  void BeginTick(Tick now);

  // True when `host` executes the tick BeginTick was last called for.
  bool serving(int host) const;
  // True when a migration may land on `host` (kUp or kDegraded — never
  // down, recovering or dead).
  bool placeable(int host) const;

  HostState state(int host) const;
  int host_count() const { return static_cast<int>(states_.size()); }
  int up_hosts() const;

  const fault::HostFaultPlan& plan() const { return plan_; }
  const fault::HostFaultStats& stats() const { return stats_; }
  const std::vector<HostTransition>& transitions() const {
    return transitions_;
  }

 private:
  void Transition(Tick now, int host, HostState to);
  void EnterDown(Tick now, int host, Tick duration);

  fault::HostFaultPlan plan_;
  Rng rng_ SDS_SHARD_OWNED;
  // Per-host machine state: current state, the tick the current window
  // expires, and the tick the degrade window was entered (fixes the serve
  // phase so a degraded host serves ticks where (now - entered) %
  // degrade_stride == 0).
  std::vector<HostState> states_ SDS_SHARD_OWNED;
  std::vector<Tick> until_ SDS_SHARD_OWNED;
  std::vector<Tick> degrade_entered_ SDS_SHARD_OWNED;
  Tick now_ SDS_SHARD_OWNED = 0;
  fault::HostFaultStats stats_ SDS_SHARD_OWNED;
  std::vector<HostTransition> transitions_ SDS_SHARD_OWNED;
};

}  // namespace sds::cluster
