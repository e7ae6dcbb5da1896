// State-machine behavior of the reworked MitigationEngine: retry/backoff,
// timeouts, escalation, throttle fallback, efficacy verification — plus
// the alarm-time telemetry pinning regression.
#include <cstdint>
#include <string_view>

#include <gtest/gtest.h>

#include "attacks/bus_lock_attacker.h"
#include "cluster/mitigation.h"
#include "telemetry/telemetry.h"
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
  Cluster cluster{2, HostConfig{}, 23};
  VmRef victim;
  VmRef attacker;

  Rig() {
    victim = cluster.Deploy(0, "victim", AppFactory());
    attacker = cluster.Deploy(0, "attacker", AttackerFactory());
  }

  void Tick(MitigationEngine& engine, int n) {
    for (int t = 0; t < n; ++t) {
      cluster.RunTick();
      engine.OnTick();
    }
  }

  // Ticks until the engine reaches a terminal state (or the cap runs out).
  void DriveToTerminal(MitigationEngine& engine, int cap = 4000) {
    for (int t = 0; t < cap; ++t) {
      if (engine.state() == MitigationState::kSettled ||
          engine.state() == MitigationState::kFailed) {
        return;
      }
      cluster.RunTick();
      engine.OnTick();
    }
  }
};

MitigationConfig SpareConfig(MitigationPolicy policy) {
  return {.policy = policy, .spare_host = 1};
}

TEST(MitigationActuationTest, NewNamesAreStable) {
  EXPECT_STREQ(MitigationPolicyName(MitigationPolicy::kThrottleFallback),
               "throttle-fallback");
  EXPECT_STREQ(MitigationStateName(MitigationState::kIdle), "idle");
  EXPECT_STREQ(MitigationStateName(MitigationState::kDispatched),
               "dispatched");
  EXPECT_STREQ(MitigationStateName(MitigationState::kInFlight), "in-flight");
  EXPECT_STREQ(MitigationStateName(MitigationState::kVerifying),
               "verifying");
  EXPECT_STREQ(MitigationStateName(MitigationState::kSettled), "settled");
  EXPECT_STREQ(MitigationStateName(MitigationState::kFailed), "failed");
}

TEST(MitigationActuationTest, CleanPathSettlesSynchronouslyAtAlarm) {
  Rig rig;
  rig.cluster.RunTick();
  MitigationEngine engine(rig.cluster, rig.victim,
                          SpareConfig(MitigationPolicy::kMigrateVictim));
  EXPECT_EQ(engine.state(), MitigationState::kIdle);
  engine.OnAlarm(0);
  EXPECT_EQ(engine.state(), MitigationState::kSettled);
  EXPECT_EQ(engine.settled_tick(), engine.mitigation_tick());
  EXPECT_EQ(engine.victim().host, 1);
  EXPECT_EQ(engine.stats().dispatches, 1u);
  EXPECT_EQ(engine.stats().retries, 0u);
}

TEST(MitigationActuationTest, RetriesThenEscalatesToThrottleOnAbort) {
  Rig rig;
  Actuator actuator(rig.cluster,
                    fault::ActuationFaultPlan::Single(
                        fault::ActuationFaultKind::kMigrationAbort, 1.0, 5));
  MitigationEngine engine(rig.cluster, rig.victim,
                          SpareConfig(MitigationPolicy::kMigrateVictim),
                          &actuator);
  engine.OnAlarm(0);
  rig.DriveToTerminal(engine);

  ASSERT_EQ(engine.state(), MitigationState::kSettled);
  EXPECT_EQ(engine.applied_policy(), MitigationPolicy::kThrottleFallback);
  EXPECT_EQ(engine.victim().host, 0);  // every migration aborted
  EXPECT_EQ(engine.stats().dispatches,
            static_cast<std::uint64_t>(kMaxAttempts));
  EXPECT_EQ(engine.stats().retries,
            static_cast<std::uint64_t>(kMaxAttempts - 1));
  EXPECT_EQ(engine.stats().escalations, 1u);
  // Unattributed: the hypervisor throttles everything except the victim.
  EXPECT_TRUE(rig.cluster.hypervisor(0).throttling_active());
  EXPECT_FALSE(rig.cluster.hypervisor(0).vm_throttled(engine.victim().id));
}

TEST(MitigationActuationTest, TimeoutCatchesLostCommands) {
  Rig rig;
  Actuator actuator(rig.cluster,
                    fault::ActuationFaultPlan::Single(
                        fault::ActuationFaultKind::kCommandLost, 1.0, 5));
  MitigationEngine engine(rig.cluster, rig.victim,
                          SpareConfig(MitigationPolicy::kMigrateVictim),
                          &actuator);
  engine.OnAlarm(0);
  EXPECT_EQ(engine.state(), MitigationState::kInFlight);
  rig.DriveToTerminal(engine);

  ASSERT_EQ(engine.state(), MitigationState::kSettled);
  EXPECT_EQ(engine.applied_policy(), MitigationPolicy::kThrottleFallback);
  EXPECT_EQ(engine.stats().timeouts, static_cast<std::uint64_t>(kMaxAttempts));
  // Every lost command reaped.
  EXPECT_EQ(actuator.stats().cancelled,
            static_cast<std::uint64_t>(kMaxAttempts));
}

TEST(MitigationActuationTest, QuarantineEscalatesToMigrationWhenStopsBounce) {
  Rig rig;
  // Stops always bounce; migrations are untouched (the kind gate).
  Actuator actuator(rig.cluster,
                    fault::ActuationFaultPlan::Single(
                        fault::ActuationFaultKind::kStopRejected, 1.0, 5));
  MitigationEngine engine(
      rig.cluster, rig.victim,
      SpareConfig(MitigationPolicy::kQuarantineAttacker), &actuator);
  engine.OnAlarm(rig.attacker.id);
  rig.DriveToTerminal(engine);

  ASSERT_EQ(engine.state(), MitigationState::kSettled);
  EXPECT_EQ(engine.applied_policy(), MitigationPolicy::kMigrateVictim);
  EXPECT_EQ(engine.victim().host, 1);
  EXPECT_TRUE(rig.cluster.IsRunnable(rig.attacker));  // never stopped
  EXPECT_EQ(engine.stats().escalations, 1u);
  EXPECT_GE(engine.stats().retries,
            static_cast<std::uint64_t>(kMaxAttempts - 1));
}

TEST(MitigationActuationTest, ExhaustionWithoutFallbackFails) {
  Rig rig;
  Actuator actuator(rig.cluster,
                    fault::ActuationFaultPlan::Single(
                        fault::ActuationFaultKind::kMigrationAbort, 1.0, 5));
  MitigationConfig config = SpareConfig(MitigationPolicy::kMigrateVictim);
  config.allow_throttle_fallback = false;
  MitigationEngine engine(rig.cluster, rig.victim, config, &actuator);
  engine.OnAlarm(0);
  rig.DriveToTerminal(engine);

  EXPECT_EQ(engine.state(), MitigationState::kFailed);
  EXPECT_FALSE(engine.mitigated());
  EXPECT_FALSE(rig.cluster.hypervisor(0).throttling_active());
}

TEST(MitigationActuationTest, ThrottleFallbackPolicyActsDirectly) {
  Rig rig;
  MitigationEngine engine(rig.cluster, rig.victim,
                          SpareConfig(MitigationPolicy::kThrottleFallback));
  engine.OnAlarm(rig.attacker.id);
  EXPECT_EQ(engine.state(), MitigationState::kSettled);
  EXPECT_EQ(engine.applied_policy(), MitigationPolicy::kThrottleFallback);
  EXPECT_EQ(engine.stats().dispatches, 0u);  // no actuator command needed
  // Attributed: only the attacker is throttled.
  EXPECT_TRUE(rig.cluster.hypervisor(0).vm_throttled(rig.attacker.id));
  EXPECT_FALSE(rig.cluster.hypervisor(0).vm_throttled(rig.victim.id));
}

TEST(MitigationActuationTest, VerificationPassesAfterRealRelief) {
  Rig rig;
  // Warm the rate EWMA under attack so the alarm snapshot is the attacked
  // rate.
  MitigationConfig config = SpareConfig(MitigationPolicy::kMigrateVictim);
  config.verify_window = 60;
  MitigationEngine engine(rig.cluster, rig.victim, config);
  rig.Tick(engine, 200);
  engine.OnAlarm(0);
  EXPECT_EQ(engine.state(), MitigationState::kVerifying);
  rig.DriveToTerminal(engine);

  ASSERT_EQ(engine.state(), MitigationState::kSettled);
  EXPECT_EQ(engine.applied_policy(), MitigationPolicy::kMigrateVictim);
  EXPECT_EQ(engine.stats().verify_failures, 0u);
  // Settling waited for the verification window.
  EXPECT_GE(engine.settled_tick() - engine.mitigation_tick(),
            config.verify_window);
}

TEST(MitigationActuationTest, VerificationFailureEscalatesWhenReliefIsFake) {
  // The spare host hosts its own bus-locking attacker: migration "succeeds"
  // but relieves nothing, so efficacy verification must escalate to the
  // throttle.
  Rig rig;
  rig.cluster.Deploy(1, "attacker2", AttackerFactory());
  MitigationConfig config = SpareConfig(MitigationPolicy::kMigrateVictim);
  config.verify_window = 60;
  MitigationEngine engine(rig.cluster, rig.victim, config);
  rig.Tick(engine, 200);
  engine.OnAlarm(0);
  rig.DriveToTerminal(engine);

  ASSERT_EQ(engine.state(), MitigationState::kSettled);
  EXPECT_EQ(engine.stats().verify_failures, 1u);
  EXPECT_EQ(engine.stats().escalations, 1u);
  EXPECT_EQ(engine.applied_policy(), MitigationPolicy::kThrottleFallback);
  // The victim did move; the throttle then cleared its new host.
  EXPECT_EQ(engine.victim().host, 1);
  EXPECT_TRUE(rig.cluster.hypervisor(1).throttling_active());
}

// -- Alarm-time telemetry pinning (regression) -------------------------------

TEST(MitigationActuationTest, AuditsLandOnTheAlarmTimeHost) {
  // Regression: the one-shot engine resolved the telemetry handle AFTER
  // Migrate() had already updated victim_.host, so with per-host telemetry
  // the mitigation record landed on the DESTINATION host's audit log. An
  // operator asking "what happened on the attacked host?" found nothing.
  telemetry::Telemetry attacked_host_tel;
  telemetry::Telemetry spare_host_tel;
  std::vector<HostConfig> hosts(2);
  hosts[0].machine.telemetry = &attacked_host_tel;
  hosts[1].machine.telemetry = &spare_host_tel;
  Cluster cluster(hosts, 23);
  const VmRef victim = cluster.Deploy(0, "victim", AppFactory());
  cluster.Deploy(0, "attacker", AttackerFactory());

  MitigationEngine engine(
      cluster, victim,
      {.policy = MitigationPolicy::kMigrateVictim, .spare_host = 1});
  engine.OnAlarm(0);
  ASSERT_EQ(engine.victim().host, 1);

  int attacked_records = 0;
  for (const auto& r : attacked_host_tel.audit().records()) {
    if (std::string_view(r.check) == "mitigation") ++attacked_records;
  }
  int spare_records = 0;
  for (const auto& r : spare_host_tel.audit().records()) {
    if (std::string_view(r.check) == "mitigation") ++spare_records;
  }
  EXPECT_EQ(attacked_records, 1);
  EXPECT_EQ(spare_records, 0);
}

TEST(MitigationActuationTest, ActuationAuditTrailRecordsTheFight) {
  telemetry::Telemetry telemetry;
  HostConfig host;
  host.machine.telemetry = &telemetry;
  Cluster cluster(2, host, 23);
  const VmRef victim = cluster.Deploy(0, "victim", AppFactory());
  cluster.Deploy(0, "attacker", AttackerFactory());

  Actuator actuator(cluster,
                    fault::ActuationFaultPlan::Single(
                        fault::ActuationFaultKind::kMigrationAbort, 1.0, 5));
  MitigationEngine engine(cluster, victim,
                          SpareConfig(MitigationPolicy::kMigrateVictim),
                          &actuator);
  engine.OnAlarm(0);
  for (int t = 0; t < 200 && engine.state() != MitigationState::kSettled;
       ++t) {
    cluster.RunTick();
    engine.OnTick();
  }

  int retries = 0;
  int escalations = 0;
  for (const auto& r : telemetry.audit().records()) {
    if (std::string_view(r.check) != "actuation") continue;
    if (std::string_view(r.channel) == "retry") ++retries;
    if (std::string_view(r.channel) == "escalate") {
      ++escalations;
      EXPECT_TRUE(r.violation);
    }
  }
  EXPECT_EQ(retries, kMaxAttempts - 1);
  EXPECT_EQ(escalations, 1);
}

}  // namespace
}  // namespace sds::cluster
