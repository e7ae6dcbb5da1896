// The interference attribution ledger on a live machine: the eviction
// matrix emerges from cross-owner cache fills, bus stall charges track the
// owners that ate the budget, and — the transparency half of the contract —
// enabling the ledger changes nothing about the simulated outcomes.
#include "sim/attribution.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/machine.h"

namespace sds::sim {
namespace {

MachineConfig SmallMachine(bool attribution) {
  MachineConfig c;
  c.cache.sets = 4;
  c.cache.ways = 2;
  c.bus.slots_per_tick = 200;
  c.max_owners = 8;
  c.attribution = attribution;
  return c;
}

TEST(AttributionTest, DisabledByDefault) {
  Machine m(SmallMachine(false));
  EXPECT_EQ(m.attribution(), nullptr);
}

TEST(AttributionTest, EvictionMatrixTracksCulpritAndVictim) {
  Machine m(SmallMachine(true));
  ASSERT_NE(m.attribution(), nullptr);
  m.BeginTick();
  // Owner 1 fills set 0 (2 ways), then owner 2 storms the same set: each of
  // owner 2's first two fills evicts one of owner 1's lines.
  m.Access(1, 0);   // set 0
  m.Access(1, 4);   // set 0
  m.Access(2, 8);   // set 0: evicts owner 1
  m.Access(2, 12);  // set 0: evicts owner 1
  m.Access(2, 16);  // set 0: evicts owner 2's own line (self-eviction)
  const AttributionLedger& ledger = *m.attribution();
  EXPECT_EQ(ledger.evictions_inflicted(2, 1), 2u);
  EXPECT_EQ(ledger.evictions_inflicted(1, 2), 0u);
  EXPECT_EQ(ledger.evictions_inflicted(2, 2), 1u);
  // Suffered sums exclude the diagonal: self-evictions are baseline noise.
  EXPECT_EQ(ledger.evictions_suffered(1), 2u);
  EXPECT_EQ(ledger.evictions_suffered(2), 0u);
}

TEST(AttributionTest, AtomicStormChargesStalledVictim) {
  MachineConfig config = SmallMachine(true);
  config.bus.slots_per_tick = 100;
  Machine m(config);
  m.BeginTick();
  // Owner 3's atomics (2 x 40 lock slots + miss transfers) exhaust the
  // budget; owner 1's ordinary access then stalls.
  m.AtomicAccess(3, 50);
  m.AtomicAccess(3, 51);
  while (m.Access(1, 60) != AccessOutcome::kStalled) {
  }
  const AttributionLedger& ledger = *m.attribution();
  EXPECT_GT(ledger.bus_delay_imposed(3, 1), 0u);
  EXPECT_EQ(ledger.bus_delay_imposed(1, 3), 0u);
  EXPECT_GT(ledger.occupancy_slots(3), ledger.occupancy_slots(1));
}

TEST(AttributionTest, LedgerIsAPureObserver) {
  // Identical access sequences with the ledger on and off must produce
  // identical outcomes and counters: the ledger observes, never perturbs.
  Machine on(SmallMachine(true));
  Machine off(SmallMachine(false));
  std::vector<AccessOutcome> outcomes_on;
  std::vector<AccessOutcome> outcomes_off;
  auto drive = [](Machine& m, std::vector<AccessOutcome>& outcomes) {
    for (int tick = 0; tick < 5; ++tick) {
      m.BeginTick();
      for (int i = 0; i < 300; ++i) {
        const auto addr = static_cast<LineAddr>((i * 7 + tick) % 64);
        if (i % 11 == 0) {
          outcomes.push_back(m.AtomicAccess(2, addr));
        } else {
          outcomes.push_back(
              m.Access(static_cast<OwnerId>(1 + (i % 3)), addr));
        }
      }
    }
  };
  drive(on, outcomes_on);
  drive(off, outcomes_off);
  EXPECT_EQ(outcomes_on, outcomes_off);
  for (OwnerId o = 1; o < 4; ++o) {
    EXPECT_EQ(on.counters(o).llc_accesses, off.counters(o).llc_accesses);
    EXPECT_EQ(on.counters(o).llc_misses, off.counters(o).llc_misses);
    EXPECT_EQ(on.counters(o).bus_stalls, off.counters(o).bus_stalls);
  }
  // And the enabled run actually gathered evidence.
  EXPECT_GT(on.attribution()->occupancy_slots(1), 0u);
}

TEST(AttributionTest, TickOccupancyResetsEachMachineTick) {
  Machine m(SmallMachine(true));
  m.BeginTick();
  m.Access(1, 0);
  EXPECT_GT(m.attribution()->tick_occupancy_slots(1), 0u);
  m.BeginTick();
  EXPECT_EQ(m.attribution()->tick_occupancy_slots(1), 0u);
  EXPECT_GT(m.attribution()->occupancy_slots(1), 0u);
}

}  // namespace
}  // namespace sds::sim
