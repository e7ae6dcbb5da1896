// EvacuationEngine (src/cluster/evacuation.h): dead/draining hosts get
// their VMs re-placed through the Actuator; when no destination exists the
// terminal fallback throttles in place; a host dying mid-actuation fails
// the in-flight command and the retry lands elsewhere.
#include "cluster/evacuation.h"

#include <gtest/gtest.h>

#include <memory>

#include "cluster/actuator.h"
#include "cluster/cluster.h"
#include "cluster/host_lifecycle.h"
#include "workloads/catalog.h"

namespace sds::cluster {
namespace {

using fault::HostFaultKind;
using fault::HostFaultPlan;
using fault::ScheduledHostFault;

HostFaultPlan CrashAt(Tick tick, int host, Tick duration) {
  HostFaultPlan plan;
  ScheduledHostFault fault;
  fault.tick = tick;
  fault.host = host;
  fault.kind = HostFaultKind::kCrash;
  fault.duration = duration;
  plan.scheduled.push_back(fault);
  return plan;
}

struct Rig {
  Cluster cluster;
  HostLifecycle lifecycle;
  Actuator actuator;
  EvacuationEngine engine;

  Rig(int hosts, int capacity, const HostFaultPlan& host_plan,
      const fault::ActuationFaultPlan& actuation_plan = {})
      : cluster(hosts,
                [capacity] {
                  HostConfig hc;
                  hc.vm_capacity = capacity;
                  return hc;
                }(),
                /*seed=*/11),
        lifecycle(hosts, host_plan),
        actuator(cluster, actuation_plan),
        engine(cluster, lifecycle, actuator) {
    cluster.AttachLifecycle(&lifecycle);
  }

  VmRef DeployBenign(int host) {
    return cluster.Deploy(host, "benign",
                          [] { return workloads::MakeBenignUtility(); });
  }

  void RunTicks(Tick n) {
    for (Tick t = 0; t < n; ++t) {
      cluster.RunTick();
      actuator.OnTick();
      engine.OnTick();
    }
  }
};

TEST(EvacuationTest, CrashedHostIsEvacuatedToTheSpare) {
  Rig rig(2, /*capacity=*/4, CrashAt(/*tick=*/5, /*host=*/0, 500));
  const VmRef a = rig.DeployBenign(0);
  const VmRef b = rig.DeployBenign(0);
  rig.RunTicks(40);

  const auto& stats = rig.engine.stats();
  EXPECT_EQ(stats.started, 2u);
  EXPECT_EQ(stats.migrated, 2u);
  EXPECT_EQ(stats.throttled_in_place, 0u);
  EXPECT_TRUE(rig.engine.quiescent());
  // Both VMs landed on the only spare and kept running there.
  EXPECT_EQ(rig.cluster.runnable_vms(1), 2);
  ASSERT_EQ(rig.engine.records().size(), 2u);
  for (const EvacuationRecord& record : rig.engine.records()) {
    EXPECT_EQ(record.outcome, EvacuationOutcome::kMigrated);
    EXPECT_EQ(record.from.host, 0);
    EXPECT_EQ(record.to.host, 1);
    EXPECT_GE(record.finished, record.started);
  }
  (void)a;
  (void)b;
}

TEST(EvacuationTest, NoUsableDestinationThrottlesInPlace) {
  // The only spare is at capacity, so every placement attempt fails and the
  // engine must fall back to throttling the stranded VM where it sits once
  // every attempt and its backoff (8+16+32+64+64 ticks) have run out.
  Rig rig(2, /*capacity=*/1, CrashAt(/*tick=*/5, /*host=*/0, 500));
  rig.DeployBenign(0);
  rig.DeployBenign(1);  // fills the spare
  rig.RunTicks(250);

  const auto& stats = rig.engine.stats();
  EXPECT_EQ(stats.started, 1u);
  EXPECT_EQ(stats.migrated, 0u);
  EXPECT_EQ(stats.throttled_in_place, 1u);
  EXPECT_GE(stats.no_destination, static_cast<std::uint64_t>(kMaxAttempts));
  EXPECT_TRUE(rig.engine.quiescent());
  ASSERT_EQ(rig.engine.records().size(), 1u);
  EXPECT_EQ(rig.engine.records()[0].outcome,
            EvacuationOutcome::kThrottledInPlace);
}

TEST(EvacuationTest, AllSparesDownThrottlesInPlace) {
  HostFaultPlan plan = CrashAt(/*tick=*/5, /*host=*/0, 500);
  ScheduledHostFault second;
  second.tick = 5;
  second.host = 1;
  second.kind = HostFaultKind::kCrash;
  second.duration = 500;
  plan.scheduled.push_back(second);
  Rig rig(2, /*capacity=*/4, plan);
  rig.DeployBenign(0);
  rig.RunTicks(250);

  EXPECT_EQ(rig.engine.stats().migrated, 0u);
  EXPECT_EQ(rig.engine.stats().throttled_in_place, 1u);
}

TEST(EvacuationTest, HostDiesMidActuationAndRetryLandsElsewhere) {
  // Compose the two fault planes: actuation commands take 10 ticks, and the
  // first destination (host 1, most free slots at submit) crashes while the
  // evacuation command is in flight. The completion must fail the command
  // (mid-actuation host death), and the retry must land on host 2.
  HostFaultPlan plan = CrashAt(/*tick=*/5, /*host=*/0, 500);
  ScheduledHostFault mid;
  mid.tick = 10;  // between submit (~tick 5) and completion (~tick 15)
  mid.host = 1;
  mid.kind = HostFaultKind::kCrash;
  mid.duration = 500;
  plan.scheduled.push_back(mid);

  fault::ActuationFaultPlan actuation;
  actuation.latency_min_ticks = 10;
  actuation.latency_max_ticks = 10;

  Rig rig(3, /*capacity=*/4, plan, actuation);
  rig.DeployBenign(0);
  rig.DeployBenign(2);  // host 1 starts emptier than host 2
  rig.RunTicks(80);

  const auto& stats = rig.engine.stats();
  EXPECT_EQ(stats.started, 1u);
  EXPECT_EQ(stats.migrated, 1u);
  EXPECT_GE(stats.retries, 1u) << "the mid-actuation death must cost a retry";
  ASSERT_EQ(rig.engine.records().size(), 1u);
  EXPECT_EQ(rig.engine.records()[0].outcome, EvacuationOutcome::kMigrated);
  EXPECT_EQ(rig.engine.records()[0].to.host, 2);
  EXPECT_EQ(rig.cluster.runnable_vms(2), 2);
}

TEST(EvacuationTest, FaultFreeClusterNeverStartsATask) {
  Rig rig(2, /*capacity=*/4, HostFaultPlan{});
  rig.DeployBenign(0);
  rig.RunTicks(50);
  EXPECT_EQ(rig.engine.stats().started, 0u);
  EXPECT_TRUE(rig.engine.records().empty());
  EXPECT_TRUE(rig.engine.quiescent());
}

}  // namespace
}  // namespace sds::cluster
