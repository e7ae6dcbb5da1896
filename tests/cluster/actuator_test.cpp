#include "cluster/actuator.h"

#include <gtest/gtest.h>

#include "attacks/bus_lock_attacker.h"
#include "workloads/catalog.h"

namespace sds::cluster {
namespace {

WorkloadFactory AppFactory() {
  return [] { return workloads::MakeApp("kmeans"); };
}

WorkloadFactory AttackerFactory() {
  return [] {
    return std::make_unique<attacks::BusLockAttacker>(
        attacks::BusLockConfig{});
  };
}

struct Rig {
  Cluster cluster{2, HostConfig{}, 17};
  VmRef victim;
  VmRef attacker;

  Rig() {
    victim = cluster.Deploy(0, "victim", AppFactory());
    attacker = cluster.Deploy(0, "attacker", AttackerFactory());
  }

  void Tick(Actuator& actuator, int n) {
    for (int t = 0; t < n; ++t) {
      cluster.RunTick();
      actuator.OnTick();
    }
  }
};

fault::ActuationFaultPlan LatencyPlan(Tick lo, Tick hi) {
  fault::ActuationFaultPlan plan;
  plan.latency_min_ticks = lo;
  plan.latency_max_ticks = hi;
  return plan;
}

TEST(ActuatorTest, EnumNamesAreStable) {
  EXPECT_STREQ(ActuationOpName(ActuationOp::kMigrate), "migrate");
  EXPECT_STREQ(ActuationOpName(ActuationOp::kStop), "stop");
  EXPECT_STREQ(CommandStatusName(CommandStatus::kInFlight), "in-flight");
  EXPECT_STREQ(CommandStatusName(CommandStatus::kCancelled), "cancelled");
  EXPECT_STREQ(ActuationErrorName(ActuationError::kConflict), "conflict");
  EXPECT_STREQ(ActuationErrorName(ActuationError::kSourceGone),
               "source-gone");
  EXPECT_STREQ(
      fault::ActuationFaultKindName(fault::ActuationFaultKind::kCommandLost),
      "command-lost");
  EXPECT_STREQ(fault::ActuationFaultKindName(
                   fault::ActuationFaultKind::kSpareAtCapacity),
               "spare-at-capacity");
}

TEST(ActuatorTest, NullPlanMigratesSynchronously) {
  Rig rig;
  Actuator actuator(rig.cluster);
  EXPECT_FALSE(actuator.plan().enabled());

  const CommandId id = actuator.SubmitMigrate(rig.victim, 1);
  const CommandResult& r = actuator.result(id);
  EXPECT_EQ(r.status, CommandStatus::kSucceeded);
  EXPECT_EQ(r.error, ActuationError::kNone);
  EXPECT_EQ(r.placement.host, 1);
  EXPECT_EQ(r.completed, r.submitted);
  EXPECT_TRUE(rig.cluster.IsRunnable(r.placement));
  EXPECT_FALSE(rig.cluster.IsRunnable(rig.victim));  // stopped at the source
  EXPECT_EQ(actuator.stats().completed, 1u);
}

TEST(ActuatorTest, LatencyDelaysExecution) {
  Rig rig;
  Actuator actuator(rig.cluster, LatencyPlan(5, 5));
  const CommandId id = actuator.SubmitMigrate(rig.victim, 1);
  EXPECT_EQ(actuator.result(id).status, CommandStatus::kInFlight);
  rig.Tick(actuator, 4);
  EXPECT_EQ(actuator.result(id).status, CommandStatus::kInFlight);
  EXPECT_TRUE(rig.cluster.IsRunnable(rig.victim));  // nothing moved yet
  rig.Tick(actuator, 1);
  EXPECT_EQ(actuator.result(id).status, CommandStatus::kSucceeded);
  EXPECT_EQ(actuator.result(id).placement.host, 1);
  EXPECT_EQ(actuator.stats().latency_ticks, 5u);
}

TEST(ActuatorTest, LostCommandNeverCompletesUntilCancelled) {
  Rig rig;
  Actuator actuator(rig.cluster,
                    fault::ActuationFaultPlan::Single(
                        fault::ActuationFaultKind::kCommandLost, 1.0, 3));
  const CommandId id = actuator.SubmitStop(rig.attacker);
  rig.Tick(actuator, 50);
  EXPECT_EQ(actuator.result(id).status, CommandStatus::kInFlight);
  EXPECT_TRUE(rig.cluster.IsRunnable(rig.attacker));  // never executed
  EXPECT_EQ(actuator.stats().lost, 1u);

  actuator.Cancel(id);
  EXPECT_EQ(actuator.result(id).status, CommandStatus::kCancelled);
  rig.Tick(actuator, 10);
  // Cancelled commands stay dead even after more ticks.
  EXPECT_EQ(actuator.result(id).status, CommandStatus::kCancelled);
  EXPECT_TRUE(rig.cluster.IsRunnable(rig.attacker));
  EXPECT_EQ(actuator.stats().cancelled, 1u);
}

TEST(ActuatorTest, MigrationAbortLeavesSourceRunning) {
  Rig rig;
  Actuator actuator(rig.cluster,
                    fault::ActuationFaultPlan::Single(
                        fault::ActuationFaultKind::kMigrationAbort, 1.0, 3));
  const CommandId id = actuator.SubmitMigrate(rig.victim, 1);
  const CommandResult& r = actuator.result(id);
  EXPECT_EQ(r.status, CommandStatus::kFailed);
  EXPECT_EQ(r.error, ActuationError::kAborted);
  EXPECT_TRUE(rig.cluster.IsRunnable(rig.victim));
  EXPECT_EQ(rig.cluster.runnable_vms(1), 0);
  EXPECT_EQ(actuator.stats().failed, 1u);
  EXPECT_EQ(actuator.stats().injected_total(), 1u);
}

TEST(ActuatorTest, SpareHostDownOpensAWindowThatExpires) {
  Rig rig;
  auto plan = fault::ActuationFaultPlan::Single(
      fault::ActuationFaultKind::kSpareHostDown, 1.0, 3);
  plan.host_down_min_ticks = 10;
  plan.host_down_max_ticks = 10;
  Actuator actuator(rig.cluster, plan);

  const CommandId id = actuator.SubmitMigrate(rig.victim, 1);
  EXPECT_EQ(actuator.result(id).status, CommandStatus::kFailed);
  EXPECT_EQ(actuator.result(id).error, ActuationError::kHostDown);
  EXPECT_FALSE(actuator.host_usable(1));
  EXPECT_TRUE(actuator.host_usable(0));
  rig.Tick(actuator, 10);
  EXPECT_TRUE(actuator.host_usable(1));
}

TEST(ActuatorTest, StopRejectedLeavesTargetRunning) {
  Rig rig;
  Actuator actuator(rig.cluster,
                    fault::ActuationFaultPlan::Single(
                        fault::ActuationFaultKind::kStopRejected, 1.0, 3));
  const CommandId id = actuator.SubmitStop(rig.attacker);
  EXPECT_EQ(actuator.result(id).status, CommandStatus::kFailed);
  EXPECT_EQ(actuator.result(id).error, ActuationError::kRejected);
  EXPECT_TRUE(rig.cluster.IsRunnable(rig.attacker));
}

TEST(ActuatorTest, StopFaultKindsDoNotApplyToMigrations) {
  Rig rig;
  // A plan that rejects every stop must not perturb migrations at all.
  Actuator actuator(rig.cluster,
                    fault::ActuationFaultPlan::Single(
                        fault::ActuationFaultKind::kStopRejected, 1.0, 3));
  const CommandId id = actuator.SubmitMigrate(rig.victim, 1);
  EXPECT_EQ(actuator.result(id).status, CommandStatus::kSucceeded);
  EXPECT_EQ(actuator.stats().injected_total(), 0u);
}

TEST(ActuatorTest, DuplicateSubmitIsRejectedAsConflict) {
  Rig rig;
  Actuator actuator(rig.cluster, LatencyPlan(10, 10));
  const CommandId first = actuator.SubmitStop(rig.victim);
  const CommandId second = actuator.SubmitMigrate(rig.victim, 1);
  EXPECT_NE(first, second);
  EXPECT_EQ(actuator.result(second).status, CommandStatus::kFailed);
  EXPECT_EQ(actuator.result(second).error, ActuationError::kConflict);
  EXPECT_EQ(actuator.stats().conflicts, 1u);

  // The original command is unaffected by the rejected duplicate.
  rig.Tick(actuator, 10);
  EXPECT_EQ(actuator.result(first).status, CommandStatus::kSucceeded);
  EXPECT_FALSE(rig.cluster.IsRunnable(rig.victim));

  // With the slot free again, a new command for the same VM is accepted
  // (a repeated stop is idempotent).
  const CommandId third = actuator.SubmitStop(rig.victim);
  rig.Tick(actuator, 10);
  EXPECT_EQ(actuator.result(third).status, CommandStatus::kSucceeded);
  EXPECT_FALSE(rig.cluster.IsRunnable(rig.victim));
}

TEST(ActuatorTest, MigrateOfStoppedSourceFailsSourceGone) {
  Rig rig;
  Actuator actuator(rig.cluster);
  actuator.SubmitStop(rig.victim);
  const CommandId id = actuator.SubmitMigrate(rig.victim, 1);
  EXPECT_EQ(actuator.result(id).status, CommandStatus::kFailed);
  EXPECT_EQ(actuator.result(id).error, ActuationError::kSourceGone);
}

TEST(ActuatorTest, MigrateToFullHostFailsNoCapacity) {
  std::vector<HostConfig> hosts(2);
  hosts[1].vm_capacity = 1;
  Cluster cluster(hosts, 17);
  const VmRef victim = cluster.Deploy(0, "victim", AppFactory());
  cluster.Deploy(1, "occupant", AppFactory());

  Actuator actuator(cluster);
  const CommandId id = actuator.SubmitMigrate(victim, 1);
  EXPECT_EQ(actuator.result(id).status, CommandStatus::kFailed);
  EXPECT_EQ(actuator.result(id).error, ActuationError::kNoCapacity);
  EXPECT_TRUE(cluster.IsRunnable(victim));
}

TEST(ActuatorTest, FaultScheduleIsDeterministicPerSeed) {
  const auto run = [](std::uint64_t plan_seed) {
    Rig rig;
    auto plan = fault::ActuationFaultPlan::Single(
        fault::ActuationFaultKind::kMigrationAbort, 0.5, plan_seed);
    plan.latency_min_ticks = 1;
    plan.latency_max_ticks = 6;
    Actuator actuator(rig.cluster, plan);
    std::vector<std::pair<CommandStatus, Tick>> out;
    VmRef vm = rig.victim;
    for (int i = 0; i < 6; ++i) {
      const CommandId id =
          actuator.SubmitMigrate(vm, vm.host == 0 ? 1 : 0);
      rig.Tick(actuator, 8);
      const CommandResult& r = actuator.result(id);
      out.emplace_back(r.status, r.completed - r.submitted);
      if (r.status == CommandStatus::kSucceeded) vm = r.placement;
    }
    return out;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));  // different stream, different schedule
}

TEST(RetryDriverTest, BackoffDoublesUpToTheCap) {
  EXPECT_EQ(RetryBackoff(1), 8);
  EXPECT_EQ(RetryBackoff(2), 16);
  EXPECT_EQ(RetryBackoff(3), 32);
  EXPECT_EQ(RetryBackoff(4), 64);
  EXPECT_EQ(RetryBackoff(5), 64);
}

TEST(RetryDriverTest, CancelsALostCommandAtTheTimeoutThenBacksOff) {
  Rig rig;
  Actuator actuator(rig.cluster,
                    fault::ActuationFaultPlan::Single(
                        fault::ActuationFaultKind::kCommandLost, 1.0, 3));
  RetryDriver retry;
  const CommandId id = actuator.SubmitStop(rig.attacker);
  retry.Track(id, rig.cluster.now());
  const Tick dispatched = rig.cluster.now();
  while (rig.cluster.now() - dispatched < kCommandTimeout) {
    ASSERT_EQ(retry.PollCommand(actuator, rig.cluster.now()),
              RetryDriver::Poll::kInFlight);
    rig.Tick(actuator, 1);
  }
  const Tick now = rig.cluster.now();
  EXPECT_EQ(retry.PollCommand(actuator, now), RetryDriver::Poll::kTimedOut);
  EXPECT_EQ(actuator.result(id).status, CommandStatus::kCancelled);
  EXPECT_FALSE(retry.outstanding());
  EXPECT_EQ(retry.PollCommand(actuator, now), RetryDriver::Poll::kIdle);
  EXPECT_FALSE(retry.ready(now + RetryBackoff(1) - 1));
  EXPECT_TRUE(retry.ready(now + RetryBackoff(1)));

  // Attempts that submit nothing count toward exhaustion too.
  for (int i = retry.attempts(); i < kMaxAttempts; ++i) {
    EXPECT_FALSE(retry.exhausted());
    retry.FailAttempt(now);
  }
  EXPECT_TRUE(retry.exhausted());
  retry.Reset();
  EXPECT_EQ(retry.attempts(), 0);
  EXPECT_TRUE(retry.ready(now));
}

}  // namespace
}  // namespace sds::cluster
