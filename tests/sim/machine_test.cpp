#include "sim/machine.h"

#include <cstring>
#include <map>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "telemetry/telemetry.h"

namespace sds::sim {
namespace {

MachineConfig SmallMachine() {
  MachineConfig c;
  c.cache.sets = 16;
  c.cache.ways = 4;
  c.bus.slots_per_tick = 200;
  c.bus.access_slots = 1;
  c.bus.miss_extra_slots = 3;
  c.bus.atomic_lock_slots = 40;
  c.max_owners = 8;
  return c;
}

TEST(MachineTest, CountersStartAtZero) {
  Machine m(SmallMachine());
  EXPECT_EQ(m.counters(1).llc_accesses, 0u);
  EXPECT_EQ(m.counters(1).llc_misses, 0u);
}

TEST(MachineTest, AccessUpdatesCounters) {
  Machine m(SmallMachine());
  m.BeginTick();
  EXPECT_EQ(m.Access(1, 0x10), AccessOutcome::kMiss);
  EXPECT_EQ(m.Access(1, 0x10), AccessOutcome::kHit);
  EXPECT_EQ(m.counters(1).llc_accesses, 2u);
  EXPECT_EQ(m.counters(1).llc_misses, 1u);
}

TEST(MachineTest, CountersArePerOwner) {
  Machine m(SmallMachine());
  m.BeginTick();
  m.Access(1, 1);
  m.Access(2, 2);
  m.Access(2, 3);
  EXPECT_EQ(m.counters(1).llc_accesses, 1u);
  EXPECT_EQ(m.counters(2).llc_accesses, 2u);
}

TEST(MachineTest, MissConsumesExtraBusSlots) {
  Machine m(SmallMachine());
  m.BeginTick();
  m.Access(1, 5);
  // 1 access slot + 3 miss extra.
  EXPECT_EQ(m.bus().slots_remaining(), 196u);
}

TEST(MachineTest, HitConsumesOnlyAccessSlot) {
  Machine m(SmallMachine());
  m.BeginTick();
  m.Access(1, 5);
  const auto before = m.bus().slots_remaining();
  m.Access(1, 5);
  EXPECT_EQ(m.bus().slots_remaining(), before - 1);
}

TEST(MachineTest, StalledAccessDoesNotTouchCache) {
  Machine m(SmallMachine());
  m.BeginTick();
  // Drain the bus.
  while (m.bus().TryConsume(0, 1)) {
  }
  EXPECT_EQ(m.Access(1, 77), AccessOutcome::kStalled);
  EXPECT_EQ(m.counters(1).llc_accesses, 0u);
  EXPECT_EQ(m.counters(1).bus_stalls, 1u);
  EXPECT_FALSE(m.cache().Contains(77));
}

TEST(MachineTest, AtomicAccessCountsAtomics) {
  Machine m(SmallMachine());
  m.BeginTick();
  EXPECT_EQ(m.AtomicAccess(1, 9), AccessOutcome::kMiss);
  EXPECT_EQ(m.counters(1).atomic_ops, 1u);
  // Atomic lock window (40) + miss extra (3).
  EXPECT_EQ(m.bus().slots_remaining(), 200u - 43u);
}

TEST(MachineTest, AtomicStallsWhenBusFull) {
  Machine m(SmallMachine());
  m.BeginTick();
  for (int i = 0; i < 4; ++i) m.AtomicAccess(1, static_cast<LineAddr>(i));
  // 4 * 43 = 172 consumed; a 5th atomic (needs 40) stalls.
  EXPECT_EQ(m.AtomicAccess(2, 100), AccessOutcome::kStalled);
  EXPECT_EQ(m.counters(2).bus_stalls, 1u);
  EXPECT_EQ(m.counters(2).atomic_ops, 0u);
}

TEST(MachineTest, TickAdvancesClock) {
  Machine m(SmallMachine());
  EXPECT_EQ(m.now(), 0);
  m.BeginTick();
  m.BeginTick();
  EXPECT_EQ(m.now(), 2);
}

TEST(MachineTest, BusRefillsAcrossTicks) {
  Machine m(SmallMachine());
  m.BeginTick();
  while (m.bus().TryConsume(0, 1)) {
  }
  EXPECT_EQ(m.Access(1, 3), AccessOutcome::kStalled);
  m.BeginTick();
  EXPECT_NE(m.Access(1, 3), AccessOutcome::kStalled);
}

TEST(MachineTest, CrossOwnerEvictionRaisesVictimMisses) {
  // One owner's set-filling accesses evict another owner's resident line,
  // which then misses on its next access — the cleansing mechanism end to
  // end at machine level.
  MachineConfig cfg = SmallMachine();
  cfg.bus.slots_per_tick = 100000;
  Machine m(cfg);
  m.BeginTick();
  m.Access(1, 0);  // victim line in set 0
  EXPECT_EQ(m.Access(1, 0), AccessOutcome::kHit);
  for (std::uint32_t w = 0; w < cfg.cache.ways; ++w) {
    m.Access(2, 1000 * 16 + static_cast<LineAddr>(w) * 16);  // set 0
  }
  EXPECT_EQ(m.Access(1, 0), AccessOutcome::kMiss);
  EXPECT_EQ(m.counters(1).llc_misses, 2u);
}

// --- per-tick aggregation of the sim layer's trace events ------------------

// (tick, owner, event name) -> the event's "count" field.
using SimEventCounts = std::map<std::tuple<Tick, std::int64_t, std::string>,
                                double>;

SimEventCounts CollectSimEvents(const telemetry::EventTracer& tracer) {
  SimEventCounts out;
  for (std::size_t i = 0; i < tracer.retained(); ++i) {
    const telemetry::TraceEvent& e = tracer.event(i);
    double count = -1.0;
    for (const auto& f : e.nums) {
      if (f.key != nullptr && std::strcmp(f.key, "count") == 0) count = f.value;
    }
    const auto [it, inserted] =
        out.emplace(std::make_tuple(e.tick, e.owner, std::string(e.name)),
                    count);
    EXPECT_TRUE(inserted) << "second " << e.name << " event for owner "
                          << e.owner << " at tick " << e.tick;
  }
  return out;
}

// Three ticks of a known mix. Owners 1 and 2 take turns refilling the
// 4-way set 0 with fresh lines, so each refill evicts the other owner's
// lines there (cross-owner) or the refiller's own (not counted); owners 1
// and 3 issue atomics to fresh lines in sets 2 and 1, which evict no other
// owner's line.
//   tick 1: owner 1 fills set 0 (cold), owner 2 evicts 4 of its lines;
//           owner 3 opens 2 lock windows.
//   tick 2: owner 1 evicts owner 2's 4 lines, then 4 of its own; owner 1
//           opens 1 lock window, owner 3 opens 3.
//   tick 3: owner 2 evicts 3 of owner 1's lines.
// Returns the tick the machine stands at when the drive ends.
Tick DriveKnownMix(Machine& m) {
  LineAddr next = 1;
  const auto fill_set0 = [&](OwnerId owner, int lines) {
    for (int i = 0; i < lines; ++i) {
      EXPECT_EQ(m.Access(owner, 16 * next++), AccessOutcome::kMiss);
    }
  };
  const auto atomics = [&](OwnerId owner, LineAddr set, int n) {
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(m.AtomicAccess(owner, 16 * next++ + set), AccessOutcome::kMiss);
    }
  };
  m.BeginTick();
  fill_set0(1, 4);
  fill_set0(2, 4);
  atomics(3, 1, 2);
  m.BeginTick();
  fill_set0(1, 8);
  atomics(1, 2, 1);
  atomics(3, 1, 3);
  m.BeginTick();
  fill_set0(2, 3);
  return m.now();
}

MachineConfig TracedMachine(telemetry::Telemetry* telemetry) {
  MachineConfig c = SmallMachine();
  c.bus.slots_per_tick = 100000;
  c.telemetry = telemetry;
  return c;
}

std::uint64_t CounterValue(telemetry::Telemetry& t, const char* name) {
  return t.metrics().GetCounter(name)->value();
}

TEST(MachineTraceTest, OneEventPerTickOwnerAndKindStampedWithItsTick) {
  telemetry::Telemetry t;
  {
    Machine m(TracedMachine(&t));
    ASSERT_EQ(DriveKnownMix(m), 3);
    // Ticks 1 and 2 were closed out by the BeginTick that followed them;
    // tick 3 is still open, so none of its events exists yet.
    const SimEventCounts open = CollectSimEvents(t.tracer());
    EXPECT_EQ(open.size(), 5u);
    for (const auto& [key, count] : open) EXPECT_LT(std::get<0>(key), 3);
  }
  const SimEventCounts expected = {
      {{1, 2, "cross_owner_eviction"}, 4.0},
      {{1, 3, "lock_window_open"}, 2.0},
      {{2, 1, "cross_owner_eviction"}, 4.0},
      {{2, 1, "lock_window_open"}, 1.0},
      {{2, 3, "lock_window_open"}, 3.0},
      {{3, 2, "cross_owner_eviction"}, 3.0},  // emitted by ~Machine
  };
  EXPECT_EQ(CollectSimEvents(t.tracer()), expected);
  EXPECT_EQ(t.tracer().emitted_by_layer(telemetry::Layer::kSimCache), 3u);
  EXPECT_EQ(t.tracer().emitted_by_layer(telemetry::Layer::kSimBus), 3u);
}

TEST(MachineTraceTest, CountFieldsSumToTheRegistryCounters) {
  telemetry::Telemetry t;
  { Machine m(TracedMachine(&t)); DriveKnownMix(m); }
  double evictions = 0.0;
  double locks = 0.0;
  for (const auto& [key, count] : CollectSimEvents(t.tracer())) {
    (std::get<2>(key) == "cross_owner_eviction" ? evictions : locks) += count;
  }
  EXPECT_EQ(CounterValue(t, "sim.cache.cross_owner_evictions"), 11u);
  EXPECT_EQ(CounterValue(t, "sim.bus.atomic_locks"), 6u);
  EXPECT_EQ(evictions, 11.0);
  EXPECT_EQ(locks, 6.0);
}

TEST(MachineTraceTest, DisabledSimLayersEmitNothingButCountersStillCount) {
  telemetry::Telemetry t;
  t.tracer().DisableLayer(telemetry::Layer::kSimCache);
  t.tracer().DisableLayer(telemetry::Layer::kSimBus);
  { Machine m(TracedMachine(&t)); DriveKnownMix(m); }
  EXPECT_EQ(t.tracer().emitted(), 0u);
  EXPECT_EQ(CounterValue(t, "sim.cache.cross_owner_evictions"), 11u);
  EXPECT_EQ(CounterValue(t, "sim.bus.atomic_locks"), 6u);
}

}  // namespace
}  // namespace sds::sim
