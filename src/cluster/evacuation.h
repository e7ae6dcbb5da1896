// Automatic VM evacuation of down and dead hosts (DESIGN.md §17).
//
// The engine watches the HostLifecycle every tick; when a host is down or
// dead, each of its runnable VMs gets an evacuation task that
// routes a migration through the shared Actuator (never Cluster::Migrate
// directly — the det-actuation-idempotent contract), with capacity-aware
// placement and the RetryDriver's per-command timeouts and backoff
// (cluster/actuator.h). A scan that finds no destination counts as a failed
// attempt. Once kMaxAttempts attempts have failed and the last backoff has
// elapsed — typically because no spare host has room — the task falls back
// to throttling the VM in place for kThrottleTicks: the provider admits it
// cannot move the VM and caps its damage where it stands (the same terminal
// fallback the MitigationEngine escalates to).
//
// Placement: the usable destination (lifecycle-placeable, no injected down
// window, spare capacity) with the most free slots wins; ties break to the
// lowest host id, so placement is deterministic.
//
// Detector handoff seam: cluster cannot depend on the obs envelope layer
// (they are DAG siblings), so the engine only REPORTS completed migrations
// through set_on_migrated; eval-layer harnesses hang the warm detector
// handoff (obs/handoff.h) off that hook.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/actuator.h"
#include "cluster/cluster.h"
#include "cluster/host_lifecycle.h"
#include "common/types.h"

namespace sds::cluster {

enum class EvacuationOutcome : std::uint8_t {
  kPending,
  kMigrated,
  kThrottledInPlace,
  // The VM stopped being runnable while its task was pending (someone else
  // stopped or quarantined it) — nothing left to evacuate.
  kAbandoned,
};
const char* EvacuationOutcomeName(EvacuationOutcome outcome);

struct EvacuationRecord {
  VmRef from;
  VmRef to;  // valid only when outcome == kMigrated
  Tick started = 0;
  Tick finished = kInvalidTick;
  int attempts = 0;
  EvacuationOutcome outcome = EvacuationOutcome::kPending;
};

struct EvacuationStats {
  std::uint64_t started = 0;
  std::uint64_t migrated = 0;
  std::uint64_t throttled_in_place = 0;
  std::uint64_t retries = 0;         // failed attempts that were retried
  std::uint64_t timeouts = 0;        // commands cancelled after the timeout
  std::uint64_t no_destination = 0;  // scans that found no usable spare
  std::uint64_t abandoned = 0;       // source VM vanished mid-evacuation
  // Sum of (finished - started) over migrated VMs — evacuation convergence.
  std::uint64_t evacuation_ticks = 0;
};

class EvacuationEngine {
 public:
  // All references are non-owning and must outlive the engine; `actuator`
  // must drive the same `cluster`.
  EvacuationEngine(Cluster& cluster, HostLifecycle& lifecycle,
                   Actuator& actuator);

  // Called once per cluster tick (after Cluster::RunTick and
  // Actuator::OnTick). Starts tasks for newly-stranded VMs and drives the
  // retry machinery of the active ones.
  void OnTick();

  // Invoked after every successful evacuation migration with the old and
  // new placement, at a tick boundary — the warm detector-state handoff
  // hangs off this.
  using MigratedHook = std::function<void(const VmRef& from, const VmRef& to)>;
  void set_on_migrated(MigratedHook hook) { on_migrated_ = std::move(hook); }

  // True when no evacuation task is still pending.
  bool quiescent() const;

  const EvacuationStats& stats() const { return stats_; }
  const std::vector<EvacuationRecord>& records() const { return records_; }

 private:
  struct Task {
    std::size_t record = 0;  // index into records_
    VmRef vm;
    RetryDriver retry;
    bool done = false;
  };

  bool NeedsEvacuation(int host) const;
  // Best destination for one more VM, or -1 when no usable host has room.
  int PickDestination(int source_host) const;
  void StartTasks();
  void DriveTask(Task& task);
  void FinishMigrated(Task& task, const VmRef& placement);
  void FinishThrottled(Task& task);

  Cluster& cluster_;
  HostLifecycle& lifecycle_;
  Actuator& actuator_;
  // Single-thread shard affinity: owned by the tick loop that owns the
  // cluster, like the lifecycle itself.
  std::vector<Task> tasks_ SDS_SHARD_OWNED;
  std::vector<EvacuationRecord> records_ SDS_SHARD_OWNED;
  EvacuationStats stats_ SDS_SHARD_OWNED;
  MigratedHook on_migrated_;
};

}  // namespace sds::cluster
