// A small multi-host cluster on top of the single-machine simulator.
//
// The paper's Discussion (Section 6) frames detection as the trigger for a
// provider response — "take proper actions (e.g., VM migrations) when they
// happen". This module provides the substrate for that: several simulated
// hosts ticking in lockstep, VM deployment by factory, and migration.
//
// Migration semantics: stop-and-restart. The source VM stops; a fresh
// instance of the same workload starts on the destination host (its factory
// is retained at deployment time). This models the contention-relief effect
// of migration — the property the mitigation experiments measure — without
// simulating live-migration state transfer.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/machine.h"
#include "vm/hypervisor.h"

namespace sds::cluster {

class HostLifecycle;

using WorkloadFactory = std::function<std::unique_ptr<vm::Workload>()>;

struct HostConfig {
  sim::MachineConfig machine;
  vm::HypervisorConfig hypervisor;
  // Maximum RUNNABLE VMs this host admits; 0 = unlimited (the default, which
  // preserves pre-capacity behavior). Stopped/quarantined VMs release their
  // slot, so a quarantine frees capacity for a later migration.
  int vm_capacity = 0;
};

// Identifies a VM placement within the cluster.
struct VmRef {
  int host = -1;
  OwnerId id = 0;
  bool valid() const { return host >= 0 && id != 0; }
};

class Cluster {
 public:
  Cluster(int hosts, const HostConfig& config, std::uint64_t seed);
  // Heterogeneous cluster: one config per host (capacity, telemetry handle,
  // machine geometry may all differ).
  Cluster(const std::vector<HostConfig>& hosts, std::uint64_t seed);

  // Deploys a VM built by `factory` on `host`. The factory is retained so
  // the VM can be re-instantiated on migration. Aborts when the host is at
  // capacity (use HasCapacity for a non-fatal check).
  VmRef Deploy(int host, const std::string& name, WorkloadFactory factory);

  // Advances every host by one tick. With a lifecycle attached, hosts that
  // are down / recovering / dead (or skipping a degraded tick) do NOT tick:
  // their machines freeze in place, VM state intact, until the host serves
  // again or the evacuation engine moves the VMs off.
  void RunTick();
  Tick now() const;

  // Attaches the host state machine (DESIGN.md §17). Non-owning; the
  // lifecycle must outlive the cluster and cover the same host count.
  // Pass nullptr to detach. RunTick then drives lifecycle->BeginTick and
  // gates each host on lifecycle->serving — with a null HostFaultPlan that
  // gate is always open and the attachment is bit-transparent.
  void AttachLifecycle(HostLifecycle* lifecycle);
  HostLifecycle* lifecycle() { return lifecycle_; }

  // True when `host` executes the current tick (always true without a
  // lifecycle).
  bool host_serving(int host) const;
  // True when a migration may land on `host` per the lifecycle (always true
  // without one). The Actuator consults this at execution time, so a
  // command completing into a host that died in flight fails with
  // kHostDown instead of placing a VM on a dead machine.
  bool host_placeable(int host) const;

  // Stop-and-restart migration; returns the new placement. The source VM
  // remains on its host in the stopped state (its counters freeze). The
  // source must be runnable and the destination must have capacity; callers
  // that cannot guarantee either route through cluster::Actuator, which
  // turns these aborts into retryable command failures.
  VmRef Migrate(const VmRef& ref, int destination_host);

  // Stops a VM in place (the provider quarantining a suspected attacker).
  void StopVm(const VmRef& ref);

  // True when `host` can admit one more runnable VM.
  bool HasCapacity(int host) const;
  // True when the referenced VM is in the running state.
  bool IsRunnable(const VmRef& ref) const;

  int host_count() const { return static_cast<int>(hosts_.size()); }
  sim::Machine& machine(int host);
  vm::Hypervisor& hypervisor(int host);
  const sim::OwnerCounters& counters(const VmRef& ref);

  // Number of runnable VMs on a host (capacity/balance diagnostics).
  int runnable_vms(int host) const;
  // Configured capacity of a host (0 = unlimited).
  int vm_capacity(int host) const;

 private:
  struct Host {
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<vm::Hypervisor> hypervisor;
    int vm_capacity = 0;  // 0 = unlimited
  };
  struct Record {
    std::string name;
    WorkloadFactory factory;
  };

  const Record& RecordFor(const VmRef& ref) const;

  std::vector<Host> hosts_;
  // records_[host][owner-1] = deployment record.
  std::vector<std::vector<Record>> records_;
  // Cluster-global tick counter. Host 0's machine clock stops when host 0
  // is down, so the cluster keeps its own monotonic time (identical to the
  // old hosts_.front() clock whenever every host ticks).
  Tick tick_ = 0;
  HostLifecycle* lifecycle_ = nullptr;
};

}  // namespace sds::cluster
