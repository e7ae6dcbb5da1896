// The hypervisor: creates VMs on a machine, schedules their memory operations
// each tick, and provides the two control facilities the detection systems
// rely on:
//
//   * execution throttling — pausing every VM except a protected one, which
//     is how the KStest baseline [49] collects its reference samples;
//   * a monitoring-load model — while a PCM-style monitor is attached, a
//     small fraction of every VM's operations is deferred, modelling the CPU
//     time the monitoring agent steals (reading MSRs across 28 logical cores
//     costs on the order of 100 us of every 10 ms sampling interval).
//
// Scheduling: each tick, runnable VMs are served round-robin in chunks of a
// few operations, starting from a rotating offset for long-run fairness. A VM
// whose operation stalls on the exhausted bus is done for the tick. This
// interleaving is what converts attacker bus pressure into victim AccessNum
// drops, and attacker evictions into victim MissNum spikes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/machine.h"
#include "vm/vm.h"

namespace sds::telemetry {
class Counter;
class Gauge;
class SpanProfiler;
}  // namespace sds::telemetry

namespace sds::vm {

struct HypervisorConfig {
  // Operations served per VM per round-robin round.
  std::uint32_t schedule_chunk = 4;
  // Fraction of each VM's operations deferred per active monitoring agent
  // (see the monitoring-load model above).
  double monitor_load_fraction = 0.012;
};

class Hypervisor {
 public:
  Hypervisor(sim::Machine& machine, const HypervisorConfig& config, Rng rng);

  // Creates a VM running `workload`; returns its owner id. Owner ids are
  // assigned sequentially starting at 1 (0 is the hypervisor itself).
  OwnerId CreateVm(std::string name, std::unique_ptr<Workload> workload);

  VirtualMachine& vm(OwnerId id);
  const VirtualMachine& vm(OwnerId id) const;
  std::size_t vm_count() const { return vms_.size(); }

  // Advances the machine by one tick and services all runnable VMs.
  void RunTick();

  Tick now() const { return machine_.now(); }
  sim::Machine& machine() { return machine_; }
  const sim::Machine& machine() const { return machine_; }

  // -- Execution throttling (KStest baseline support) ----------------------
  // Pauses every VM except `protected_vm` for `duration` ticks, measured
  // from the next tick. Re-arming extends the window.
  void ThrottleAllExcept(OwnerId protected_vm, Tick duration);
  bool throttling_active() const { return throttle_remaining_ > 0; }

  // Pauses a single VM for `duration` ticks (used by the KStest baseline's
  // attacker-identification sweep). Independent of ThrottleAllExcept.
  void ThrottleVm(OwnerId id, Tick duration);
  bool vm_throttled(OwnerId id) const;

  // -- Monitoring-load model ------------------------------------------------
  // Monitors register/deregister themselves; load stacks if several run.
  void AttachMonitor();
  void DetachMonitor();
  int active_monitors() const { return active_monitors_; }
  // Total operations deferred by the monitoring-load model.
  std::uint64_t monitor_dropped_ops() const { return monitor_dropped_ops_; }

  // The machine's observability handle (nullptr when detached), so samplers
  // and detectors constructed on this hypervisor find it without extra
  // plumbing.
  telemetry::Telemetry* telemetry() const { return machine_.telemetry(); }

 private:
  void TraceEventVm(const char* name, std::int64_t owner, const char* key,
                    double value);
  // Recomputes drop_threshold_ from active_monitors_.
  void UpdateDropProbability();

  // A VM that may still issue ops this tick.
  struct Slot {
    Workload* workload;
    OwnerId owner;
  };

  sim::Machine& machine_;
  HypervisorConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<VirtualMachine>> vms_;

  Tick throttle_remaining_ = 0;
  OwnerId throttle_protected_ = 0;
  std::vector<Tick> vm_throttle_remaining_;
  int active_monitors_ = 0;
  // Chance that the monitoring load defers an op, 1 - (1 - f)^monitors, as
  // an Rng::Threshold. 0 with no monitor attached, and then no op draws.
  std::uint64_t drop_threshold_ = 0;
  std::uint64_t monitor_dropped_ops_ = 0;
  // RunTick's service rotation, kept across ticks so no tick allocates.
  std::vector<Slot> slots_;

  // Telemetry instrument slots (see sim::Machine for the wiring pattern).
  // "vm.tick" wraps the whole of RunTick; "vm.schedule" wraps the round-robin
  // service loop, so vm.tick self-time is slot collection + throttling
  // bookkeeping. Span ids are raw integers (telemetry::SpanId).
  telemetry::SpanProfiler* prof_ = nullptr;
  std::uint32_t span_tick_ = 0;
  std::uint32_t span_schedule_ = 0;
  telemetry::Counter* t_scheduled_ops_ = nullptr;
  telemetry::Counter* t_monitor_dropped_ = nullptr;
  telemetry::Counter* t_throttle_windows_ = nullptr;
  telemetry::Gauge* t_runnable_vms_ = nullptr;
};

}  // namespace sds::vm
