#include "attacks/llc_cleansing_attacker.h"

#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "sim/machine.h"
#include "vm/hypervisor.h"

namespace sds::attacks {
namespace {

LlcCleansingConfig SmallConfig() {
  LlcCleansingConfig cfg;
  cfg.cache_sets = 64;
  cfg.cache_ways = 4;
  cfg.ops_per_tick = 512;
  cfg.contention_threshold = 1;
  cfg.reprobe_interval_ticks = 1000;
  return cfg;
}

TEST(LlcCleansingAttackerTest, StartsInRecon) {
  LlcCleansingAttacker a(SmallConfig());
  a.Bind(1 << 20, Rng(1));
  EXPECT_TRUE(a.in_recon());
}

TEST(LlcCleansingAttackerTest, ReconCoversEverySetTwice) {
  LlcCleansingAttacker a(SmallConfig());
  a.Bind(1 << 20, Rng(2));
  std::map<std::uint32_t, int> per_set;
  sim::MemOp op;
  Tick t = 0;
  // Recon is 2 passes over sets*ways = 512 ops: exactly one tick at 512/tick.
  while (a.in_recon() && t < 10) {
    a.BeginTick(t++);
    while (a.in_recon() && a.NextOp(op)) {
      ++per_set[static_cast<std::uint32_t>(op.addr) & 63u];
      a.OnOutcome(op, sim::AccessOutcome::kHit);
    }
  }
  EXPECT_FALSE(a.in_recon());
  EXPECT_EQ(per_set.size(), 64u);
  for (const auto& [set, count] : per_set) {
    EXPECT_EQ(count, 8) << "set " << set;  // 4 ways x 2 passes
  }
}

TEST(LlcCleansingAttackerTest, NoContentionFallsBackToAllSets) {
  LlcCleansingAttacker a(SmallConfig());
  a.Bind(1 << 20, Rng(3));
  sim::MemOp op;
  Tick t = 0;
  while (a.in_recon() && t < 10) {
    a.BeginTick(t++);
    // All hits: nobody evicted our lines, no set is contended.
    while (a.in_recon() && a.NextOp(op)) {
      a.OnOutcome(op, sim::AccessOutcome::kHit);
    }
  }
  EXPECT_EQ(a.contended_sets().size(), 64u);
  EXPECT_EQ(a.recon_rounds(), 1u);
}

TEST(LlcCleansingAttackerTest, ProbeMissesMarkContendedSets) {
  LlcCleansingAttacker a(SmallConfig());
  a.Bind(1 << 20, Rng(4));
  sim::MemOp op;
  Tick t = 0;
  const std::uint32_t total_ops = 64 * 4;  // one pass
  std::uint32_t seen = 0;
  while (a.in_recon() && t < 10) {
    a.BeginTick(t++);
    while (a.in_recon() && a.NextOp(op)) {
      const auto set = static_cast<std::uint32_t>(op.addr) & 63u;
      // First pass (prime): all misses (cold). Second pass: sets 5 and 9
      // miss (somebody displaced us), everything else hits.
      sim::AccessOutcome outcome;
      if (seen < total_ops) {
        outcome = sim::AccessOutcome::kMiss;
      } else {
        outcome = (set == 5 || set == 9) ? sim::AccessOutcome::kMiss
                                         : sim::AccessOutcome::kHit;
      }
      ++seen;
      a.OnOutcome(op, outcome);
    }
  }
  ASSERT_EQ(a.contended_sets().size(), 2u);
  EXPECT_EQ(a.contended_sets()[0], 5u);
  EXPECT_EQ(a.contended_sets()[1], 9u);
}

TEST(LlcCleansingAttackerTest, CleanseSweepsContendedSetsOnly) {
  LlcCleansingAttacker a(SmallConfig());
  a.Bind(1 << 20, Rng(5));
  sim::MemOp op;
  Tick t = 0;
  std::uint32_t seen = 0;
  const std::uint32_t total_ops = 64 * 4;
  while (a.in_recon() && t < 10) {
    a.BeginTick(t++);
    while (a.in_recon() && a.NextOp(op)) {
      const auto set = static_cast<std::uint32_t>(op.addr) & 63u;
      const bool probe_pass = seen >= total_ops;
      ++seen;
      a.OnOutcome(op, (probe_pass && set == 7) ? sim::AccessOutcome::kMiss
                                               : (probe_pass
                                                      ? sim::AccessOutcome::kHit
                                                      : sim::AccessOutcome::kMiss));
    }
  }
  ASSERT_FALSE(a.in_recon());
  // Everything the cleanser touches now must map to set 7.
  a.BeginTick(t++);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(a.NextOp(op));
    EXPECT_EQ(static_cast<std::uint32_t>(op.addr) & 63u, 7u);
    a.OnOutcome(op, sim::AccessOutcome::kMiss);
  }
  EXPECT_EQ(a.cleanse_ops(), 100u);
}

TEST(LlcCleansingAttackerTest, ReprobesAfterInterval) {
  LlcCleansingConfig cfg = SmallConfig();
  cfg.reprobe_interval_ticks = 3;
  LlcCleansingAttacker a(cfg);
  a.Bind(1 << 20, Rng(6));
  sim::MemOp op;
  Tick t = 0;
  while (a.in_recon() && t < 10) {
    a.BeginTick(t++);
    while (a.in_recon() && a.NextOp(op)) a.OnOutcome(op, sim::AccessOutcome::kHit);
  }
  EXPECT_EQ(a.recon_rounds(), 1u);
  // Cleanse for reprobe_interval ticks, then recon must restart.
  for (int i = 0; i < 3; ++i) {
    a.BeginTick(t++);
    while (a.NextOp(op) && !a.in_recon()) {
      a.OnOutcome(op, sim::AccessOutcome::kHit);
    }
  }
  a.BeginTick(t++);
  EXPECT_TRUE(a.in_recon());
}

TEST(LlcCleansingAttackerTest, RaisesVictimMissesEndToEnd) {
  // Full mechanism against the real cache: victim's hot set is resident and
  // hitting; once the cleanser runs, victim misses jump.
  sim::MachineConfig mc;
  mc.cache.sets = 64;
  mc.cache.ways = 4;
  mc.bus.slots_per_tick = 100000;
  sim::Machine machine(mc);
  vm::HypervisorConfig hc;
  vm::Hypervisor hv(machine, hc, Rng(7));

  class HotVictim final : public vm::Workload {
   public:
    void Bind(LineAddr base, Rng rng) override {
      base_ = base;
      rng_ = rng;
    }
    void BeginTick(Tick) override { left_ = 100; }
    bool NextOp(sim::MemOp& op) override {
      if (left_ == 0) return false;
      --left_;
      op.atomic = false;
      op.addr = base_ + rng_.UniformInt(128ull);  // 128-line hot set
      return true;
    }
    void OnOutcome(const sim::MemOp&, sim::AccessOutcome) override {}
    std::uint64_t work_completed() const override { return 0; }
    std::string_view name() const override { return "hot-victim"; }

   private:
    LineAddr base_ = 0;
    Rng rng_{0};
    int left_ = 0;
  };

  const OwnerId victim = hv.CreateVm("victim", std::make_unique<HotVictim>());
  for (int t = 0; t < 100; ++t) hv.RunTick();
  const auto warm_misses = machine.counters(victim).llc_misses;
  for (int t = 0; t < 100; ++t) hv.RunTick();
  const auto baseline_misses =
      machine.counters(victim).llc_misses - warm_misses;

  LlcCleansingConfig cfg;
  cfg.cache_sets = mc.cache.sets;
  cfg.cache_ways = mc.cache.ways;
  cfg.ops_per_tick = 512;
  hv.CreateVm("attacker", std::make_unique<LlcCleansingAttacker>(cfg));
  for (int t = 0; t < 100; ++t) hv.RunTick();
  const auto attacked_misses = machine.counters(victim).llc_misses -
                               warm_misses - baseline_misses;
  // MissNum must increase by a large factor (Observation 1).
  EXPECT_GT(attacked_misses, baseline_misses * 3 + 100);
}

TEST(LlcCleansingAttackerTest, RequiresSetAlignedBuffer) {
  LlcCleansingAttacker a(SmallConfig());
  EXPECT_DEATH(a.Bind(3, Rng(8)), "set-aligned");
}

// The eviction buffer (sets x ways lines) must fit the VM's line range.
TEST(LlcCleansingAttackerTest, BufferMustFitTheVmRange) {
  LlcCleansingConfig cfg = SmallConfig();
  cfg.cache_ways = (1u << vm::kVmLineBits) / cfg.cache_sets;
  LlcCleansingAttacker fits(cfg);
  fits.Bind(0, Rng(9));
  cfg.cache_ways += 1;
  LlcCleansingAttacker spills(cfg);
  EXPECT_DEATH(spills.Bind(0, Rng(9)), "VM's line range");
}

}  // namespace
}  // namespace sds::attacks
