#include "attacks/bus_lock_attacker.h"

#include <memory>

#include <gtest/gtest.h>

#include "sim/machine.h"
#include "vm/hypervisor.h"

namespace sds::attacks {
namespace {

TEST(BusLockAttackerTest, PlansAtomicOps) {
  BusLockConfig cfg;
  cfg.atomics_per_tick = 10;
  cfg.buffer_lines = 4;
  BusLockAttacker a(cfg);
  a.Bind(1000, Rng(1));
  a.BeginTick(0);
  sim::MemOp op;
  int count = 0;
  while (a.NextOp(op)) {
    EXPECT_TRUE(op.atomic);
    EXPECT_GE(op.addr, 1000u);
    EXPECT_LT(op.addr, 1004u);
    a.OnOutcome(op, sim::AccessOutcome::kHit);
    ++count;
  }
  EXPECT_EQ(count, 10);
  EXPECT_EQ(a.locks_issued(), 10u);
}

TEST(BusLockAttackerTest, StalledLocksNotCounted) {
  BusLockConfig cfg;
  cfg.atomics_per_tick = 5;
  BusLockAttacker a(cfg);
  a.Bind(0, Rng(2));
  a.BeginTick(0);
  sim::MemOp op;
  while (a.NextOp(op)) a.OnOutcome(op, sim::AccessOutcome::kStalled);
  EXPECT_EQ(a.locks_issued(), 0u);
}

TEST(BusLockAttackerTest, BudgetResetsPerTick) {
  BusLockConfig cfg;
  cfg.atomics_per_tick = 3;
  BusLockAttacker a(cfg);
  a.Bind(0, Rng(3));
  for (Tick t = 0; t < 4; ++t) {
    a.BeginTick(t);
    sim::MemOp op;
    int n = 0;
    while (a.NextOp(op)) {
      a.OnOutcome(op, sim::AccessOutcome::kHit);
      ++n;
    }
    EXPECT_EQ(n, 3);
  }
  EXPECT_EQ(a.work_completed(), 12u);
}

TEST(BusLockAttackerTest, StarvesVictimOnSharedBus) {
  // End to end at the hypervisor level: victim throughput collapses once
  // the attacker floods the bus with lock windows.
  sim::MachineConfig mc;
  mc.cache.sets = 256;
  mc.cache.ways = 8;
  mc.bus.slots_per_tick = 2000;
  sim::Machine machine(mc);
  vm::HypervisorConfig hc;
  vm::Hypervisor hv(machine, hc, Rng(4));

  // A simple victim issuing 200 normal accesses per tick over a hot region.
  class Victim final : public vm::Workload {
   public:
    void Bind(LineAddr base, Rng) override { base_ = base; }
    void BeginTick(Tick) override { left_ = 200; }
    bool NextOp(sim::MemOp& op) override {
      if (left_ == 0) return false;
      --left_;
      op.atomic = false;
      op.addr = base_ + (cursor_++ % 128);
      return true;
    }
    void OnOutcome(const sim::MemOp&, sim::AccessOutcome) override {}
    std::uint64_t work_completed() const override { return 0; }
    std::string_view name() const override { return "victim"; }

   private:
    LineAddr base_ = 0;
    int left_ = 0;
    std::uint64_t cursor_ = 0;
  };

  const OwnerId victim = hv.CreateVm("victim", std::make_unique<Victim>());
  // Baseline throughput without the attack.
  for (int t = 0; t < 50; ++t) hv.RunTick();
  const auto baseline = machine.counters(victim).llc_accesses;
  EXPECT_EQ(baseline, 200u * 50u);

  BusLockConfig cfg;
  cfg.atomics_per_tick = 100;  // 100 * 40 slots = 4000 demanded of 2000
  hv.CreateVm("attacker", std::make_unique<BusLockAttacker>(cfg));
  for (int t = 0; t < 50; ++t) hv.RunTick();
  const auto under_attack = machine.counters(victim).llc_accesses - baseline;
  // AccessNum must drop substantially (Observation 1).
  EXPECT_LT(under_attack, 200u * 50u * 7 / 10);
}

TEST(BusLockAttackerTest, BufferMustFitTheVmRange) {
  BusLockConfig cfg;
  cfg.buffer_lines = 1u << vm::kVmLineBits;
  BusLockAttacker fits(cfg);
  fits.Bind(0, Rng(3));
  cfg.buffer_lines += 1;
  BusLockAttacker spills(cfg);
  EXPECT_DEATH(spills.Bind(0, Rng(3)), "VM's line range");
}

}  // namespace
}  // namespace sds::attacks
