// The simulated physical machine: one socket whose cores share an LLC and a
// memory bus, with per-owner hardware counters — the substrate on which VMs,
// attacks and the PCM sampler run.
//
// The counter registers mirror what Intel PCM exposes: cumulative LLC access
// and LLC miss counts per owner. The PCM sampler (src/pcm) reads deltas of
// these registers every T_PCM tick, producing exactly the AccessNum / MissNum
// series the paper's detectors consume.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/attribution.h"
#include "sim/bus.h"
#include "sim/cache.h"

namespace sds::telemetry {
class Telemetry;
class Counter;
class SpanProfiler;
}  // namespace sds::telemetry

namespace sds::sim {

struct MachineConfig {
  CacheConfig cache;
  BusConfig bus;
  // Highest owner id (exclusive) the counter file is sized for.
  OwnerId max_owners = 32;
  // Maintain the per-resource interference attribution ledger
  // (sim/attribution.h): inter-VM eviction matrix from the cache, per-owner
  // occupancy and stall charges from the bus. Off (the default) the ledger
  // is never allocated and every hook is a null test — counter streams and
  // outcomes are bit-identical to the pre-ledger simulator.
  bool attribution = false;
  // Optional observability handle (not owned; must outlive the machine).
  // Everything running on this machine — hypervisor, samplers, detectors —
  // shares this one handle, so wiring a run for telemetry is this single
  // assignment. nullptr (the default) disables all instrumentation.
  telemetry::Telemetry* telemetry = nullptr;
};

struct OwnerCounters {
  std::uint64_t llc_accesses = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t atomic_ops = 0;
  // Requests that could not be served because the bus budget was exhausted.
  std::uint64_t bus_stalls = 0;
};

enum class AccessOutcome : std::uint8_t {
  kHit,
  kMiss,
  // The bus had no remaining bandwidth this tick; the operation did not
  // execute and should be retried next tick.
  kStalled,
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);
  ~Machine();

  // Advances the machine to the next tick, refilling the bus budget.
  void BeginTick();
  Tick now() const { return now_; }

  // A normal (non-atomic) memory load by `owner`.
  AccessOutcome Access(OwnerId owner, LineAddr addr);

  // An atomic locked operation: reserves an exclusive bus lock window and
  // then performs the access. This is the primitive the bus locking attack
  // issues in a tight loop.
  AccessOutcome AtomicAccess(OwnerId owner, LineAddr addr);

  const OwnerCounters& counters(OwnerId owner) const {
    SDS_DCHECK(owner < counters_.size(), "owner out of range");
    return counters_[owner];
  }

  // The interference attribution ledger (nullptr unless
  // MachineConfig::attribution was set). Read-only outside the sim layer.
  const AttributionLedger* attribution() const { return ledger_.get(); }

  LastLevelCache& cache() { return cache_; }
  const LastLevelCache& cache() const { return cache_; }
  MemoryBus& bus() { return bus_; }
  const MemoryBus& bus() const { return bus_; }
  const MachineConfig& config() const { return config_; }

  // The shared observability handle (nullptr when detached).
  telemetry::Telemetry* telemetry() const { return config_.telemetry; }

 private:
  AccessOutcome FinishAccess(OwnerId owner, LineAddr addr);
  void RecordStall(OwnerId owner);

  // Instrumentation, run only when instrumented_ is true. Nothing reaches
  // the registry or the tracer per access. SyncTelemetry runs at the start
  // of every BeginTick (before now_ advances) and from ~Machine, so the last
  // tick of a run is flushed at the next BeginTick or at destruction. It
  // folds the per-owner counter deltas into the registry, then
  // EmitTickEvents turns tick_events_ into one "cross_owner_eviction"
  // (sim.cache) and one "lock_window_open" (sim.bus) event per owner with a
  // nonzero count, stamped with the tick the ops ran in and carrying that
  // count.
  void SyncTelemetry();
  void EmitTickEvents();
  void InstrumentStall(OwnerId owner);

  MachineConfig config_;
  LastLevelCache cache_;
  MemoryBus bus_;
  std::vector<OwnerCounters> counters_;
  // Allocated only when config_.attribution is set; cache_ and bus_ hold
  // raw observer pointers to it.
  std::unique_ptr<AttributionLedger> ledger_;
  Tick now_ = 0;

  // True when config_.telemetry is attached; the ONLY telemetry cost on the
  // hot path is testing this flag.
  bool instrumented_ = false;
  // First bus saturation already traced this tick (one event per tick).
  bool saturation_traced_ = false;

  // Instrument slots, resolved once at construction (nullptr when detached).
  // prof_/span_tick_ drive the "sim.tick" profiler span around BeginTick;
  // span_tick_ holds a telemetry::SpanId (kept as a raw integer so this
  // header needs only a forward declaration).
  telemetry::SpanProfiler* prof_ = nullptr;
  std::uint32_t span_tick_ = 0;
  telemetry::Counter* t_ticks_ = nullptr;
  telemetry::Counter* t_hits_ = nullptr;
  telemetry::Counter* t_misses_ = nullptr;
  telemetry::Counter* t_cross_evictions_ = nullptr;
  telemetry::Counter* t_atomic_locks_ = nullptr;
  telemetry::Counter* t_stalls_ = nullptr;
  telemetry::Counter* t_saturated_ticks_ = nullptr;
  // Totals already folded into the registry by SyncTelemetry.
  std::uint64_t synced_accesses_ = 0;
  std::uint64_t synced_misses_ = 0;
  std::uint64_t synced_atomic_ops_ = 0;
  std::uint64_t synced_stalls_ = 0;
  // Per owner, the cross-owner evictions it caused and the bus-lock windows
  // it opened in the current tick (sized only when instrumented).
  struct TickEvents {
    std::uint64_t cross_evictions = 0;
    std::uint64_t lock_windows = 0;
  };
  std::vector<TickEvents> tick_events_;
};

// The per-op path, defined in the header so that the hypervisor's service
// loop inlines it down to the cache lookup.
inline void Machine::RecordStall(OwnerId owner) {
  ++counters_[owner].bus_stalls;
  if (instrumented_) [[unlikely]] InstrumentStall(owner);
}

inline AccessOutcome Machine::FinishAccess(OwnerId owner, LineAddr addr) {
  SDS_DCHECK(owner < counters_.size(), "owner out of range");
  OwnerCounters& ctr = counters_[owner];
  ++ctr.llc_accesses;
  const CacheAccessResult r = cache_.Access(owner, addr);
  if (r.hit) return AccessOutcome::kHit;

  ++ctr.llc_misses;
  // The line fill from memory needs extra bus slots. If the budget runs dry
  // the fill still completes (the hardware would simply slip into the next
  // interval), so the failure only registers as bus pressure.
  bus_.TryConsume(owner, config_.bus.miss_extra_slots);
  if (instrumented_) [[unlikely]] {
    if (r.evicted_valid && r.evicted_owner != owner) {
      ++tick_events_[owner].cross_evictions;
    }
  }
  return AccessOutcome::kMiss;
}

inline AccessOutcome Machine::Access(OwnerId owner, LineAddr addr) {
  SDS_DCHECK(owner < counters_.size(), "owner out of range");
  if (!bus_.TryConsume(owner, config_.bus.access_slots)) {
    RecordStall(owner);
    return AccessOutcome::kStalled;
  }
  return FinishAccess(owner, addr);
}

inline AccessOutcome Machine::AtomicAccess(OwnerId owner, LineAddr addr) {
  SDS_DCHECK(owner < counters_.size(), "owner out of range");
  if (!bus_.TryAtomicLock(owner)) {
    RecordStall(owner);
    return AccessOutcome::kStalled;
  }
  ++counters_[owner].atomic_ops;
  if (instrumented_) [[unlikely]] ++tick_events_[owner].lock_windows;
  return FinishAccess(owner, addr);
}

}  // namespace sds::sim
