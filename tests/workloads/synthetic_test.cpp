#include "workloads/synthetic.h"

#include <vector>

#include <gtest/gtest.h>

#include "sim/mem_op.h"

namespace sds::workloads {
namespace {

SyntheticSpec SimpleSpec() {
  SyntheticSpec s;
  s.name = "test";
  PhaseSpec p;
  p.name = "only";
  p.intensity = 100.0;
  p.hot_fraction = 0.5;
  p.hot_lines = 64;
  p.stream_lines = 1000;
  s.phases = {p};
  s.ou_tau_ticks = 0.0;  // disable OU for determinism
  s.ou_sigma = 0.0;
  s.tick_jitter = 0.0;
  s.miss_stall_cost = 0.0;
  return s;
}

// Drains all ops for one tick, reporting the given outcome for each.
std::vector<sim::MemOp> DrainTick(SyntheticWorkload& w, Tick now,
                                  sim::AccessOutcome outcome) {
  w.BeginTick(now);
  std::vector<sim::MemOp> ops;
  sim::MemOp op;
  while (w.NextOp(op)) {
    ops.push_back(op);
    w.OnOutcome(op, outcome);
  }
  return ops;
}

TEST(SyntheticWorkloadTest, PlansIntensityOpsPerTick) {
  SyntheticWorkload w(SimpleSpec());
  w.Bind(0, Rng(1));
  const auto ops = DrainTick(w, 0, sim::AccessOutcome::kHit);
  EXPECT_EQ(ops.size(), 100u);
}

TEST(SyntheticWorkloadTest, AddressesStayInOwnRegion) {
  SyntheticWorkload w(SimpleSpec());
  const LineAddr base = LineAddr{1} << vm::kVmLineBits;
  w.Bind(base, Rng(2));
  for (Tick t = 0; t < 10; ++t) {
    for (const auto& op : DrainTick(w, t, sim::AccessOutcome::kHit)) {
      EXPECT_GE(op.addr, base);
      EXPECT_LT(op.addr, base + (LineAddr{1} << vm::kVmLineBits));
    }
  }
}

// The hot regions plus the largest stream region must fit the VM's range.
TEST(SyntheticWorkloadTest, FootprintMustFitTheVmRange) {
  SyntheticSpec spec = SimpleSpec();
  spec.phases[0].stream_lines =
      (std::uint64_t{1} << vm::kVmLineBits) - spec.phases[0].hot_lines;
  SyntheticWorkload fits(spec);
  fits.Bind(0, Rng(4));
  spec.phases[0].stream_lines += 1;
  SyntheticWorkload spills(spec);
  EXPECT_DEATH(spills.Bind(0, Rng(4)), "VM's line range");
}

TEST(SyntheticWorkloadTest, HotFractionRespected) {
  SyntheticSpec spec = SimpleSpec();
  spec.phases[0].hot_fraction = 0.8;
  SyntheticWorkload w(spec);
  w.Bind(0, Rng(3));
  std::size_t hot = 0;
  std::size_t total = 0;
  for (Tick t = 0; t < 100; ++t) {
    for (const auto& op : DrainTick(w, t, sim::AccessOutcome::kHit)) {
      ++total;
      if (op.addr < spec.phases[0].hot_lines) ++hot;
    }
  }
  EXPECT_NEAR(static_cast<double>(hot) / static_cast<double>(total), 0.8,
              0.03);
}

TEST(SyntheticWorkloadTest, StreamAddressesSequentialAndWrapping) {
  SyntheticSpec spec = SimpleSpec();
  spec.phases[0].hot_fraction = 0.0;
  spec.phases[0].stream_lines = 50;
  SyntheticWorkload w(spec);
  w.Bind(0, Rng(4));
  std::vector<LineAddr> stream;
  for (Tick t = 0; t < 2; ++t) {
    for (const auto& op : DrainTick(w, t, sim::AccessOutcome::kHit)) {
      stream.push_back(op.addr);
    }
  }
  const LineAddr stream_base = spec.phases[0].hot_lines;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i], stream_base + (i % 50));
  }
}

// The stream cursor runs on across phase changes; each phase wraps it at its
// own stream_lines, so the address is cursor % stream_lines of the phase the
// op was issued in.
TEST(SyntheticWorkloadTest, StreamWrapsAtEachPhasesLength) {
  SyntheticSpec spec = SimpleSpec();
  spec.phases[0].hot_fraction = 0.0;
  spec.phases[0].stream_lines = 50;
  spec.phases[0].work = 40;
  PhaseSpec second = spec.phases[0];
  second.stream_lines = 7;
  second.work = 25;
  PhaseSpec third = spec.phases[0];
  third.stream_lines = 30;
  third.work = 60;
  spec.phases.push_back(second);
  spec.phases.push_back(third);
  SyntheticWorkload w(spec);
  w.Bind(0, Rng(4));
  const LineAddr stream_base = 3 * spec.phases[0].hot_lines;
  std::vector<bool> seen(spec.phases.size(), false);
  std::uint64_t cursor = 0;
  for (Tick t = 0; t < 6; ++t) {
    w.BeginTick(t);
    sim::MemOp op;
    for (std::size_t phase = w.current_phase(); w.NextOp(op);
         phase = w.current_phase()) {
      seen[phase] = true;
      EXPECT_EQ(op.addr,
                stream_base + cursor % spec.phases[phase].stream_lines)
          << "op " << cursor << " in phase " << phase;
      ++cursor;
      w.OnOutcome(op, sim::AccessOutcome::kHit);
    }
  }
  EXPECT_EQ(cursor, 600u);
  EXPECT_EQ(seen, std::vector<bool>(spec.phases.size(), true));
  EXPECT_GE(w.batches_completed(), 4u);
}

TEST(SyntheticWorkloadTest, StalledOpsDoNotCountAsWork) {
  SyntheticWorkload w(SimpleSpec());
  w.Bind(0, Rng(5));
  DrainTick(w, 0, sim::AccessOutcome::kStalled);
  EXPECT_EQ(w.work_completed(), 0u);
  for (Tick t = 1; t <= 20; ++t) DrainTick(w, t, sim::AccessOutcome::kHit);
  EXPECT_EQ(w.work_completed(), 2u);  // 2000 completed ops / work_unit 1000
}

TEST(SyntheticWorkloadTest, MissStallReducesTickThroughput) {
  SyntheticSpec spec = SimpleSpec();
  spec.miss_stall_cost = 2.0;
  SyntheticWorkload w(spec);
  w.Bind(0, Rng(6));
  const auto all_hit = DrainTick(w, 0, sim::AccessOutcome::kHit);
  const auto all_miss = DrainTick(w, 1, sim::AccessOutcome::kMiss);
  EXPECT_EQ(all_hit.size(), 100u);
  // Every miss eats 2 extra budget units: ~100/3 ops complete.
  EXPECT_NEAR(static_cast<double>(all_miss.size()), 100.0 / 3.0, 2.0);
}

TEST(SyntheticWorkloadTest, PhasesAdvanceByCompletedWork) {
  SyntheticSpec spec = SimpleSpec();
  PhaseSpec second = spec.phases[0];
  second.name = "second";
  spec.phases[0].work = 150;  // advance after 150 completed ops
  spec.phases.push_back(second);
  SyntheticWorkload w(spec);
  w.Bind(0, Rng(7));
  EXPECT_EQ(w.current_phase(), 0u);
  DrainTick(w, 0, sim::AccessOutcome::kHit);  // 100 ops
  EXPECT_EQ(w.current_phase(), 0u);
  DrainTick(w, 1, sim::AccessOutcome::kHit);  // 200 ops total
  EXPECT_EQ(w.current_phase(), 1u);
}

TEST(SyntheticWorkloadTest, StalledTicksDoNotAdvancePhases) {
  SyntheticSpec spec = SimpleSpec();
  spec.phases[0].work = 150;
  PhaseSpec second = spec.phases[0];
  second.work = 0;
  spec.phases.push_back(second);
  SyntheticWorkload w(spec);
  w.Bind(0, Rng(8));
  for (Tick t = 0; t < 10; ++t) DrainTick(w, t, sim::AccessOutcome::kStalled);
  EXPECT_EQ(w.current_phase(), 0u);
}

TEST(SyntheticWorkloadTest, CyclingCountsBatches) {
  SyntheticSpec spec = SimpleSpec();
  spec.phases[0].work = 100;
  PhaseSpec second = spec.phases[0];
  spec.phases.push_back(second);
  spec.cycle = true;
  SyntheticWorkload w(spec);
  w.Bind(0, Rng(9));
  for (Tick t = 0; t < 10; ++t) DrainTick(w, t, sim::AccessOutcome::kHit);
  // 1000 completed ops / 200 per cycle = 5 batches.
  EXPECT_EQ(w.batches_completed(), 5u);
}

TEST(SyntheticWorkloadTest, NonCyclingStaysInLastPhase) {
  SyntheticSpec spec = SimpleSpec();
  spec.phases[0].work = 100;
  PhaseSpec second = spec.phases[0];
  second.work = 100;
  spec.phases.push_back(second);
  spec.cycle = false;
  SyntheticWorkload w(spec);
  w.Bind(0, Rng(10));
  for (Tick t = 0; t < 20; ++t) DrainTick(w, t, sim::AccessOutcome::kHit);
  EXPECT_EQ(w.current_phase(), 1u);
  EXPECT_EQ(w.batches_completed(), 1u);
}

TEST(SyntheticWorkloadTest, PhaseHotRegionsAreDisjoint) {
  SyntheticSpec spec = SimpleSpec();
  spec.phases[0].work = 100;
  spec.phases[0].hot_fraction = 1.0;
  PhaseSpec second = spec.phases[0];
  second.work = 0;
  spec.phases.push_back(second);
  SyntheticWorkload w(spec);
  w.Bind(0, Rng(11));
  const auto first_ops = DrainTick(w, 0, sim::AccessOutcome::kHit);
  // Now in phase 1.
  const auto second_ops = DrainTick(w, 1, sim::AccessOutcome::kHit);
  LineAddr first_max = 0;
  for (const auto& op : first_ops) first_max = std::max(first_max, op.addr);
  LineAddr second_min = ~0ull;
  for (const auto& op : second_ops) second_min = std::min(second_min, op.addr);
  EXPECT_LT(first_max, spec.phases[0].hot_lines);
  EXPECT_GE(second_min, spec.phases[0].hot_lines);
}

TEST(SyntheticWorkloadTest, DeterministicForSameSeed) {
  SyntheticSpec spec = SimpleSpec();
  spec.tick_jitter = 0.1;
  spec.ou_tau_ticks = 100.0;
  spec.ou_sigma = 0.1;
  SyntheticWorkload a(spec);
  SyntheticWorkload b(spec);
  a.Bind(0, Rng(12));
  b.Bind(0, Rng(12));
  for (Tick t = 0; t < 5; ++t) {
    const auto oa = DrainTick(a, t, sim::AccessOutcome::kHit);
    const auto ob = DrainTick(b, t, sim::AccessOutcome::kHit);
    ASSERT_EQ(oa.size(), ob.size());
    for (std::size_t i = 0; i < oa.size(); ++i) {
      EXPECT_EQ(oa[i].addr, ob[i].addr);
    }
  }
}

TEST(SyntheticWorkloadTest, ZipfConcentratesOnLowRanks) {
  SyntheticSpec spec = SimpleSpec();
  spec.zipf_exponent = 1.0;
  spec.phases[0].hot_fraction = 1.0;
  spec.phases[0].hot_lines = 1000;
  SyntheticWorkload w(spec);
  w.Bind(0, Rng(13));
  std::size_t low = 0;
  std::size_t total = 0;
  for (Tick t = 0; t < 100; ++t) {
    for (const auto& op : DrainTick(w, t, sim::AccessOutcome::kHit)) {
      ++total;
      if (op.addr < 10) ++low;
    }
  }
  // Top-10 of 1000 Zipf(1.0) lines carry ~39% of accesses; uniform would be 1%.
  EXPECT_GT(static_cast<double>(low) / static_cast<double>(total), 0.2);
}

TEST(SyntheticWorkloadTest, OuJitterVariesBudget) {
  SyntheticSpec spec = SimpleSpec();
  spec.ou_tau_ticks = 50.0;
  spec.ou_sigma = 0.2;
  SyntheticWorkload w(spec);
  w.Bind(0, Rng(14));
  std::size_t min_ops = ~0ull;
  std::size_t max_ops = 0;
  for (Tick t = 0; t < 200; ++t) {
    const auto n = DrainTick(w, t, sim::AccessOutcome::kHit).size();
    min_ops = std::min(min_ops, n);
    max_ops = std::max(max_ops, n);
  }
  EXPECT_LT(min_ops, 95u);
  EXPECT_GT(max_ops, 105u);
}

}  // namespace
}  // namespace sds::workloads
