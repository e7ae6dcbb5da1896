// Regression pins for the unattributed-alarm mitigation path.
//
// A quarantine policy must NEVER stop a VM on an alarm that names nobody
// (culprit 0) or names the victim itself: both fall through to migrating
// the victim. The KStest baseline's attribution default is exactly that
// sentinel — identified_attacker() is 0 until an identification sweep
// concludes, and an unmeasurable candidate is scored inconclusive-WORST, so
// "no evidence" can never convict.

#include <gtest/gtest.h>

#include "attacks/bus_lock_attacker.h"
#include "cluster/mitigation.h"
#include "detect/kstest_detector.h"
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
  telemetry::Telemetry telemetry;
  Cluster cluster;
  VmRef victim;
  VmRef attacker;

  Rig() : cluster(2, TelemetryHostConfig(&telemetry), 11) {
    victim = cluster.Deploy(0, "victim", AppFactory("kmeans"));
    attacker = cluster.Deploy(0, "attacker", AttackerFactory());
  }

  static HostConfig TelemetryHostConfig(telemetry::Telemetry* t) {
    HostConfig config;
    config.machine.telemetry = t;
    return config;
  }

  MitigationConfig QuarantineConfig() const {
    MitigationConfig config;
    config.policy = MitigationPolicy::kQuarantineAttacker;
    config.spare_host = 1;
    return config;
  }
};

TEST(MitigationUnattributedTest, CulpritZeroNeverQuarantines) {
  Rig rig;
  MitigationEngine engine(rig.cluster, rig.victim, rig.QuarantineConfig());
  engine.OnAlarm(/*attributed_attacker=*/0);
  ASSERT_TRUE(engine.mitigated());
  EXPECT_EQ(engine.applied_policy(), MitigationPolicy::kMigrateVictim);
  EXPECT_EQ(engine.victim().host, 1);
  // The (unnamed) attacker was never touched.
  EXPECT_TRUE(rig.cluster.hypervisor(0).vm(rig.attacker.id).runnable());
}

TEST(MitigationUnattributedTest, VictimSelfAttributionNeverQuarantines) {
  Rig rig;
  MitigationEngine engine(rig.cluster, rig.victim, rig.QuarantineConfig());
  engine.OnAlarm(rig.victim.id);
  ASSERT_TRUE(engine.mitigated());
  EXPECT_EQ(engine.applied_policy(), MitigationPolicy::kMigrateVictim);
  // The victim keeps running at its new placement; nobody was stopped.
  const VmRef moved = engine.victim();
  EXPECT_EQ(moved.host, 1);
  EXPECT_TRUE(rig.cluster.hypervisor(moved.host).vm(moved.id).runnable());
  EXPECT_TRUE(rig.cluster.hypervisor(0).vm(rig.attacker.id).runnable());
}

TEST(MitigationUnattributedTest, KstestDefaultAttributionIsUnattributed) {
  // The baseline's attribution starts at the 0 sentinel and stays there
  // until an identification sweep concludes; feeding it straight into a
  // quarantine engine must take the migrate fallback, not stop VM 0.
  Rig rig;
  detect::KsTestDetector detector(rig.cluster.hypervisor(0), rig.victim.id,
                                  detect::KsTestParams{});
  EXPECT_EQ(detector.identified_attacker(), 0u);

  MitigationEngine engine(rig.cluster, rig.victim, rig.QuarantineConfig());
  engine.OnAlarm(detector.identified_attacker());
  ASSERT_TRUE(engine.mitigated());
  EXPECT_EQ(engine.applied_policy(), MitigationPolicy::kMigrateVictim);
}

}  // namespace
}  // namespace sds::cluster
