#include "sim/machine.h"

#include "telemetry/telemetry.h"

namespace sds::sim {

namespace tel = sds::telemetry;

Machine::Machine(const MachineConfig& config)
    : config_(config),
      cache_(config.cache),
      bus_(config.bus),
      counters_(config.max_owners) {
  if (config_.attribution) {
    ledger_ = std::make_unique<AttributionLedger>(config_.max_owners);
    cache_.AttachLedger(ledger_.get());
    bus_.AttachLedger(ledger_.get());
  }
  if (tel::Telemetry* t = config_.telemetry) {
    instrumented_ = true;
    prof_ = &t->profiler();
    span_tick_ = prof_->RegisterSpan("sim.tick");
    tel::MetricsRegistry& m = t->metrics();
    t_ticks_ = m.GetCounter("sim.machine.ticks");
    t_hits_ = m.GetCounter("sim.cache.hits");
    t_misses_ = m.GetCounter("sim.cache.misses");
    t_cross_evictions_ = m.GetCounter("sim.cache.cross_owner_evictions");
    t_atomic_locks_ = m.GetCounter("sim.bus.atomic_locks");
    t_stalls_ = m.GetCounter("sim.bus.stalls");
    t_saturated_ticks_ = m.GetCounter("sim.bus.saturated_ticks");
    tick_events_.resize(counters_.size());
  }
}

Machine::~Machine() {
  // Fold the final (partial) tick's activity into the registry and the
  // tracer so metrics and events read after a run are exact.
  if (instrumented_) SyncTelemetry();
}

void Machine::SyncTelemetry() {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t atomic_ops = 0;
  std::uint64_t stalls = 0;
  for (const OwnerCounters& c : counters_) {
    accesses += c.llc_accesses;
    misses += c.llc_misses;
    atomic_ops += c.atomic_ops;
    stalls += c.bus_stalls;
  }
  t_hits_->Add((accesses - misses) - (synced_accesses_ - synced_misses_));
  t_misses_->Add(misses - synced_misses_);
  t_atomic_locks_->Add(atomic_ops - synced_atomic_ops_);
  t_stalls_->Add(stalls - synced_stalls_);
  synced_accesses_ = accesses;
  synced_misses_ = misses;
  synced_atomic_ops_ = atomic_ops;
  synced_stalls_ = stalls;
  EmitTickEvents();
}

void Machine::EmitTickEvents() {
  tel::EventTracer& tracer = config_.telemetry->tracer();
  const bool trace_cache = tracer.enabled(tel::Layer::kSimCache);
  const bool trace_bus = tracer.enabled(tel::Layer::kSimBus);
  std::uint64_t cross_evictions = 0;
  for (OwnerId owner = 0; owner < tick_events_.size(); ++owner) {
    TickEvents& e = tick_events_[owner];
    cross_evictions += e.cross_evictions;
    if (e.cross_evictions != 0 && trace_cache) {
      tracer.Emit(tel::MakeEvent(now_, tel::Layer::kSimCache,
                                 "cross_owner_eviction", owner)
                      .Num("count", static_cast<double>(e.cross_evictions)));
    }
    if (e.lock_windows != 0 && trace_bus) {
      tracer.Emit(
          tel::MakeEvent(now_, tel::Layer::kSimBus, "lock_window_open", owner)
              .Num("count", static_cast<double>(e.lock_windows))
              .Num("slots", config_.bus.atomic_lock_slots));
    }
    e = {};
  }
  t_cross_evictions_->Add(cross_evictions);
}

void Machine::BeginTick() {
  SDS_PROFILE_SPAN(prof_, span_tick_);
  // Close out the tick that is ending while now_ still names it.
  if (instrumented_) [[unlikely]] SyncTelemetry();
  bus_.BeginTick();
  if (ledger_) ledger_->RecordTickStart();
  saturation_traced_ = false;
  ++now_;
  if (instrumented_) [[unlikely]] t_ticks_->Add();
}

void Machine::InstrumentStall(OwnerId owner) {
  if (saturation_traced_) return;
  saturation_traced_ = true;
  t_saturated_ticks_->Add();
  tel::Telemetry* t = config_.telemetry;
  if (t->tracer().enabled(tel::Layer::kSimBus)) {
    t->tracer().Emit(
        tel::MakeEvent(now_, tel::Layer::kSimBus, "bus_saturated", owner)
            .Num("slots_remaining", bus_.slots_remaining()));
  }
}

}  // namespace sds::sim
