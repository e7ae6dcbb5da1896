#include "cluster/mitigation.h"

#include <string_view>

#include <gtest/gtest.h>

#include "attacks/bus_lock_attacker.h"
#include "telemetry/telemetry.h"
#include "workloads/catalog.h"

namespace sds::cluster {
namespace {

WorkloadFactory AppFactory(const std::string& app) {
  return [app] { return workloads::MakeApp(app); };
}

WorkloadFactory AttackerFactory() {
  return [] {
    return std::make_unique<attacks::BusLockAttacker>(
        attacks::BusLockConfig{});
  };
}

struct Rig {
  Cluster cluster{2, HostConfig{}, 11};
  VmRef victim;
  VmRef attacker;

  Rig() {
    victim = cluster.Deploy(0, "victim", AppFactory("kmeans"));
    attacker = cluster.Deploy(0, "attacker", AttackerFactory());
  }

  // Victim throughput (accesses per tick) over a window, at its current
  // placement.
  double VictimRate(const VmRef& placement, int ticks) {
    const auto before = cluster.counters(placement).llc_accesses;
    for (int t = 0; t < ticks; ++t) cluster.RunTick();
    return static_cast<double>(cluster.counters(placement).llc_accesses -
                               before) /
           ticks;
  }
};

TEST(MitigationTest, PolicyNames) {
  EXPECT_STREQ(MitigationPolicyName(MitigationPolicy::kNone), "none");
  EXPECT_STREQ(MitigationPolicyName(MitigationPolicy::kMigrateVictim),
               "migrate-victim");
  EXPECT_STREQ(MitigationPolicyName(MitigationPolicy::kQuarantineAttacker),
               "quarantine-attacker");
}

TEST(MitigationTest, NonePolicyDoesNothing) {
  Rig rig;
  MitigationEngine engine(
      rig.cluster, rig.victim,
      {.policy = MitigationPolicy::kNone, .spare_host = -1});
  engine.OnAlarm(rig.attacker.id);
  EXPECT_FALSE(engine.mitigated());
  EXPECT_EQ(engine.victim().host, 0);
}

TEST(MitigationTest, MigrateVictimRestoresThroughput) {
  Rig rig;
  const double under_attack = rig.VictimRate(rig.victim, 300);

  MitigationEngine engine(
      rig.cluster, rig.victim,
      {.policy = MitigationPolicy::kMigrateVictim, .spare_host = 1});
  engine.OnAlarm(/*attributed=*/0);
  ASSERT_TRUE(engine.mitigated());
  EXPECT_EQ(engine.applied_policy(), MitigationPolicy::kMigrateVictim);
  EXPECT_EQ(engine.victim().host, 1);

  // Warm up the new placement, then measure: the victim must be much
  // faster away from the attacker.
  rig.VictimRate(engine.victim(), 100);
  const double after = rig.VictimRate(engine.victim(), 300);
  EXPECT_GT(after, 1.3 * under_attack);
}

TEST(MitigationTest, QuarantineStopsTheAttacker) {
  Rig rig;
  const double under_attack = rig.VictimRate(rig.victim, 300);

  MitigationEngine engine(
      rig.cluster, rig.victim,
      {.policy = MitigationPolicy::kQuarantineAttacker, .spare_host = 1});
  engine.OnAlarm(rig.attacker.id);
  ASSERT_TRUE(engine.mitigated());
  EXPECT_EQ(engine.applied_policy(), MitigationPolicy::kQuarantineAttacker);
  // Victim stays put; the attacker is frozen.
  EXPECT_EQ(engine.victim().host, 0);
  EXPECT_FALSE(rig.cluster.hypervisor(0).vm(rig.attacker.id).runnable());

  rig.VictimRate(engine.victim(), 100);
  const double after = rig.VictimRate(engine.victim(), 300);
  EXPECT_GT(after, 1.3 * under_attack);
}

TEST(MitigationTest, QuarantineWithoutAttributionFallsBackToMigration) {
  Rig rig;
  MitigationEngine engine(
      rig.cluster, rig.victim,
      {.policy = MitigationPolicy::kQuarantineAttacker, .spare_host = 1});
  engine.OnAlarm(/*attributed=*/0);
  ASSERT_TRUE(engine.mitigated());
  EXPECT_EQ(engine.applied_policy(), MitigationPolicy::kMigrateVictim);
  EXPECT_EQ(engine.victim().host, 1);
}

TEST(MitigationTest, IdempotentAfterFirstResponse) {
  Rig rig;
  MitigationEngine engine(
      rig.cluster, rig.victim,
      {.policy = MitigationPolicy::kMigrateVictim, .spare_host = 1});
  engine.OnAlarm(0);
  const VmRef first = engine.victim();
  const Tick tick = engine.mitigation_tick();
  engine.OnAlarm(0);
  engine.OnAlarm(rig.attacker.id);
  EXPECT_EQ(engine.victim().host, first.host);
  EXPECT_EQ(engine.victim().id, first.id);
  EXPECT_EQ(engine.mitigation_tick(), tick);
}

TEST(MitigationTest, RecordsMitigationTick) {
  Rig rig;
  for (int t = 0; t < 25; ++t) rig.cluster.RunTick();
  MitigationEngine engine(
      rig.cluster, rig.victim,
      {.policy = MitigationPolicy::kMigrateVictim, .spare_host = 1});
  engine.OnAlarm(0);
  EXPECT_EQ(engine.mitigation_tick(), 25);
}

// -- Mitigation audit trail ---------------------------------------------------

struct AuditedRig {
  telemetry::Telemetry telemetry;
  Cluster cluster;
  VmRef victim;
  VmRef attacker;

  AuditedRig() : cluster(2, TelemetryHostConfig(&telemetry), 11) {
    victim = cluster.Deploy(0, "victim", AppFactory("kmeans"));
    attacker = cluster.Deploy(0, "attacker", AttackerFactory());
  }

  static HostConfig TelemetryHostConfig(telemetry::Telemetry* t) {
    HostConfig config;
    config.machine.telemetry = t;
    return config;
  }

  // The single mitigation audit record of the run.
  const telemetry::AuditRecord& MitigationRecord() {
    const telemetry::AuditRecord* found = nullptr;
    for (const auto& r : telemetry.audit().records()) {
      if (std::string_view(r.check) == "mitigation") {
        EXPECT_EQ(found, nullptr) << "mitigation audited more than once";
        found = &r;
      }
    }
    EXPECT_NE(found, nullptr) << "no mitigation audit record";
    return *found;
  }
};

TEST(MitigationTest, UnattributedFallbackIsAudited) {
  // The regression this pins: a provider reviewing a quarantine policy that
  // keeps migrating instead must find each unattributed alarm in the audit
  // stream, flagged as a fallback.
  AuditedRig rig;
  MitigationEngine engine(
      rig.cluster, rig.victim,
      {.policy = MitigationPolicy::kQuarantineAttacker, .spare_host = 1});
  engine.OnAlarm(/*attributed=*/0);
  ASSERT_TRUE(engine.mitigated());
  EXPECT_EQ(engine.applied_policy(), MitigationPolicy::kMigrateVictim);

  const telemetry::AuditRecord& r = rig.MitigationRecord();
  EXPECT_STREQ(r.detector, "MitigationEngine");
  EXPECT_STREQ(r.channel, "migrate-victim");  // the APPLIED policy
  EXPECT_TRUE(r.violation);                   // fallback, not the intent
  EXPECT_TRUE(r.alarm);
  EXPECT_DOUBLE_EQ(r.value, 0.0);  // the (absent) attributed attacker
}

TEST(MitigationTest, SelfAttributedAlarmAlsoFallsBack) {
  // Identification can land on the victim itself (KStest scores the victim
  // too); quarantining the victim would complete the denial of service.
  AuditedRig rig;
  MitigationEngine engine(
      rig.cluster, rig.victim,
      {.policy = MitigationPolicy::kQuarantineAttacker, .spare_host = 1});
  engine.OnAlarm(rig.victim.id);
  EXPECT_EQ(engine.applied_policy(), MitigationPolicy::kMigrateVictim);
  EXPECT_EQ(engine.victim().host, 1);
  EXPECT_TRUE(rig.MitigationRecord().violation);
}

TEST(MitigationTest, AttributedQuarantineIsAuditedAsApplied) {
  AuditedRig rig;
  MitigationEngine engine(
      rig.cluster, rig.victim,
      {.policy = MitigationPolicy::kQuarantineAttacker, .spare_host = 1});
  engine.OnAlarm(rig.attacker.id);
  EXPECT_EQ(engine.applied_policy(), MitigationPolicy::kQuarantineAttacker);

  const telemetry::AuditRecord& r = rig.MitigationRecord();
  EXPECT_STREQ(r.channel, "quarantine-attacker");
  EXPECT_FALSE(r.violation);  // the policy did what it says
  EXPECT_TRUE(r.alarm);
  EXPECT_DOUBLE_EQ(r.value, static_cast<double>(rig.attacker.id));
}

TEST(MitigationTest, RejectsBadSpareHost) {
  Rig rig;
  EXPECT_DEATH(
      MitigationEngine(
          rig.cluster, rig.victim,
          {.policy = MitigationPolicy::kMigrateVictim, .spare_host = 0}),
      "spare host");
}

}  // namespace
}  // namespace sds::cluster
