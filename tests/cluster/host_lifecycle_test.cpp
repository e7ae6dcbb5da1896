// Host state machine (src/cluster/host_lifecycle.h): scheduled and random
// faults walk up -> down -> recovering -> up deterministically; degraded
// hosts serve one tick in a stride; draining and permanent death behave.
#include "cluster/host_lifecycle.h"

#include <gtest/gtest.h>

#include <vector>

namespace sds::cluster {
namespace {

using fault::HostFaultKind;
using fault::HostFaultPlan;
using fault::ScheduledHostFault;

HostFaultPlan PlanWithScheduled(HostFaultKind kind, Tick tick, int host,
                                Tick duration) {
  HostFaultPlan plan;
  ScheduledHostFault fault;
  fault.tick = tick;
  fault.host = host;
  fault.kind = kind;
  fault.duration = duration;
  plan.scheduled.push_back(fault);
  return plan;
}

TEST(HostLifecycleTest, NullPlanServesEveryTickForever) {
  HostLifecycle lifecycle(3);
  for (Tick t = 0; t < 200; ++t) {
    lifecycle.BeginTick(t);
    for (int h = 0; h < 3; ++h) {
      EXPECT_TRUE(lifecycle.serving(h));
      EXPECT_TRUE(lifecycle.placeable(h));
      EXPECT_EQ(lifecycle.state(h), HostState::kUp);
    }
  }
  EXPECT_TRUE(lifecycle.transitions().empty());
  EXPECT_EQ(lifecycle.stats().injected_total(), 0u);
  EXPECT_EQ(lifecycle.up_hosts(), 3);
}

TEST(HostLifecycleTest, ScheduledCrashWalksDownRecoveringUp) {
  HostFaultPlan plan =
      PlanWithScheduled(HostFaultKind::kCrash, /*tick=*/10, /*host=*/0,
                        /*duration=*/20);
  plan.recovery_min_ticks = 5;
  plan.recovery_max_ticks = 5;  // deterministic recovery latency
  HostLifecycle lifecycle(2, plan);

  for (Tick t = 0; t < 60; ++t) {
    lifecycle.BeginTick(t);
    const bool host0_serving = lifecycle.serving(0);
    if (t < 10 || t >= 35) {
      EXPECT_TRUE(host0_serving) << "tick " << t;
    } else {
      EXPECT_FALSE(host0_serving) << "tick " << t;
      EXPECT_FALSE(lifecycle.placeable(0)) << "tick " << t;
    }
    EXPECT_TRUE(lifecycle.serving(1)) << "the other host is unaffected";
  }

  // Exact transition timeline: crash at 10, the 20-tick down window expires
  // at 30 (recovery attempt with latency 5), up again at 35.
  const auto& transitions = lifecycle.transitions();
  ASSERT_EQ(transitions.size(), 3u);
  EXPECT_EQ(transitions[0].tick, 10);
  EXPECT_EQ(transitions[0].from, HostState::kUp);
  EXPECT_EQ(transitions[0].to, HostState::kDown);
  EXPECT_EQ(transitions[1].tick, 30);
  EXPECT_EQ(transitions[1].to, HostState::kRecovering);
  EXPECT_EQ(transitions[2].tick, 35);
  EXPECT_EQ(transitions[2].to, HostState::kUp);

  const auto& stats = lifecycle.stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.recovery_attempts, 1u);
  EXPECT_EQ(stats.recovery_failures, 0u);
  EXPECT_EQ(stats.down_ticks, 25u);  // 20 down + 5 recovering
}

TEST(HostLifecycleTest, DegradedHostServesOneTickInStride) {
  HostFaultPlan plan =
      PlanWithScheduled(HostFaultKind::kDegrade, /*tick=*/4, /*host=*/0,
                        /*duration=*/12);
  plan.degrade_stride = 4;
  HostLifecycle lifecycle(1, plan);

  int served = 0;
  for (Tick t = 0; t < 4; ++t) {
    lifecycle.BeginTick(t);
    EXPECT_TRUE(lifecycle.serving(0));
  }
  for (Tick t = 4; t < 16; ++t) {
    lifecycle.BeginTick(t);
    EXPECT_EQ(lifecycle.state(0), HostState::kDegraded);
    // Degraded hosts still accept placements — they are slow, not dead.
    EXPECT_TRUE(lifecycle.placeable(0));
    if (lifecycle.serving(0)) ++served;
  }
  // Serves exactly the stride phase: ticks 4, 8, 12 of the 12-tick window.
  EXPECT_EQ(served, 3);
  EXPECT_EQ(lifecycle.stats().degraded_windows, 1u);
  EXPECT_EQ(lifecycle.stats().degraded_skipped, 9u);

  lifecycle.BeginTick(16);
  EXPECT_EQ(lifecycle.state(0), HostState::kUp);
}

TEST(HostLifecycleTest, FlakyRecoveryFallsBackToDown) {
  HostFaultPlan plan =
      PlanWithScheduled(HostFaultKind::kCrash, /*tick=*/0, /*host=*/0,
                        /*duration=*/5);
  plan.set_rate(HostFaultKind::kFlakyRecovery, 1.0);  // every attempt fails
  plan.recovery_min_ticks = 2;
  plan.recovery_max_ticks = 2;
  plan.down_min_ticks = 5;
  plan.down_max_ticks = 5;
  HostLifecycle lifecycle(1, plan);

  for (Tick t = 0; t < 100; ++t) {
    lifecycle.BeginTick(t);
    EXPECT_FALSE(lifecycle.serving(0)) << "tick " << t;
  }
  const auto& stats = lifecycle.stats();
  EXPECT_GE(stats.recovery_attempts, 2u);
  EXPECT_EQ(stats.recovery_failures, stats.recovery_attempts);
  EXPECT_EQ(stats.down_ticks, 100u);
}

TEST(HostLifecycleTest, PermanentDeathNeverRecovers) {
  const HostFaultPlan plan = PlanWithScheduled(
      HostFaultKind::kPermanentDeath, /*tick=*/3, /*host=*/1, /*duration=*/0);
  HostLifecycle lifecycle(2, plan);
  for (Tick t = 0; t < 500; ++t) {
    lifecycle.BeginTick(t);
    if (t >= 3) {
      EXPECT_EQ(lifecycle.state(1), HostState::kDead);
      EXPECT_FALSE(lifecycle.serving(1));
      EXPECT_FALSE(lifecycle.placeable(1));
    }
  }
  EXPECT_EQ(lifecycle.stats().permanent_deaths, 1u);
  EXPECT_EQ(lifecycle.up_hosts(), 1);
}

TEST(HostLifecycleTest, SameSeedSameFaultScheduleDifferentSeedDiffers) {
  HostFaultPlan plan = HostFaultPlan::Single(HostFaultKind::kCrash, 0.01, 7);
  HostLifecycle a(4, plan);
  HostLifecycle b(4, plan);
  plan.seed = 8;
  HostLifecycle c(4, plan);
  for (Tick t = 0; t < 3000; ++t) {
    a.BeginTick(t);
    b.BeginTick(t);
    c.BeginTick(t);
  }
  ASSERT_GT(a.transitions().size(), 0u) << "rate high enough to fire";
  ASSERT_EQ(a.transitions().size(), b.transitions().size());
  for (std::size_t i = 0; i < a.transitions().size(); ++i) {
    EXPECT_EQ(a.transitions()[i].tick, b.transitions()[i].tick);
    EXPECT_EQ(a.transitions()[i].host, b.transitions()[i].host);
    EXPECT_EQ(a.transitions()[i].to, b.transitions()[i].to);
  }
  // A different seed draws a different schedule.
  bool differs = c.transitions().size() != a.transitions().size();
  for (std::size_t i = 0;
       !differs && i < a.transitions().size() && i < c.transitions().size();
       ++i) {
    differs = a.transitions()[i].tick != c.transitions()[i].tick ||
              a.transitions()[i].host != c.transitions()[i].host;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace sds::cluster
