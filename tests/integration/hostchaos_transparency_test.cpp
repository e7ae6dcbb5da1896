// Host-chaos transparency pin.
//
// PR 10 threads a HostLifecycle through Cluster::RunTick and parks an
// EvacuationEngine next to the Actuator. This test proves the whole plane
// is bit-transparent when the HostFaultPlan is null: the detect -> alarm ->
// mitigate pipeline with a lifecycle attached and an idle evacuation engine
// ticking produces IDENTICAL alarm ticks, placements, audit hashes and
// event counts to the pre-PR engine — the pinned constants are the same
// ones actuation_golden_test.cpp captured before this PR. Drift here means
// the chaos plane leaks into fault-free runs.
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "attacks/bus_lock_attacker.h"
#include "attacks/scheduled_workload.h"
#include "cluster/actuator.h"
#include "cluster/evacuation.h"
#include "cluster/host_lifecycle.h"
#include "cluster/mitigation.h"
#include "common/snapshot.h"
#include "detect/sds_detector.h"
#include "eval/experiment.h"
#include "eval/hostchaos.h"
#include "telemetry/telemetry.h"
#include "workloads/catalog.h"

namespace sds::eval {
namespace {

TEST(HostChaosTransparencyTest, NullPlanLifecycleIsBitTransparent) {
  const std::uint64_t seed = 42;
  telemetry::Telemetry telemetry;

  detect::DetectorParams params;
  ScenarioConfig base;
  base.app = "kmeans";
  const auto clean = CollectCleanSamples(base, 4000, seed + 1);
  const auto profile = detect::BuildSdsProfile(clean, params);

  cluster::HostConfig host;
  host.machine.telemetry = &telemetry;
  cluster::Cluster cl(2, host, seed);

  // The new plane, all null: lifecycle with no fault plan attached to the
  // cluster, an idle actuator, and an evacuation engine with nothing to do.
  cluster::HostLifecycle lifecycle(2);
  cl.AttachLifecycle(&lifecycle);
  cluster::Actuator evac_actuator(cl);
  cluster::EvacuationEngine evacuation(cl, lifecycle, evac_actuator);

  const Tick attack_start = 3000;
  const cluster::VmRef victim =
      cl.Deploy(0, "victim", [] { return workloads::MakeApp("kmeans"); });
  cl.Deploy(0, "attacker", [attack_start] {
    return std::make_unique<attacks::ScheduledWorkload>(
        std::make_unique<attacks::BusLockAttacker>(attacks::BusLockConfig{}),
        attack_start, -1);
  });
  for (int i = 0; i < 3; ++i) {
    cl.Deploy(0, "benign", [] { return workloads::MakeBenignUtility(); });
  }

  detect::SdsDetector detector(cl.hypervisor(0), victim.id, profile, params,
                               detect::SdsMode::kCombined);
  cluster::MitigationEngine engine(
      cl, victim,
      {.policy = cluster::MitigationPolicy::kMigrateVictim, .spare_host = 1});

  Tick alarm_tick = -1;
  for (Tick t = 0; t < attack_start; ++t) {
    cl.RunTick();
    detector.OnTick();
    engine.OnTick();
    evac_actuator.OnTick();
    evacuation.OnTick();
  }
  for (Tick t = 0; t < 6000; ++t) {
    cl.RunTick();
    detector.OnTick();
    engine.OnTick();
    evac_actuator.OnTick();
    evacuation.OnTick();
    if (detector.attack_active()) {
      alarm_tick = cl.now();
      break;
    }
  }
  ASSERT_GE(alarm_tick, 0);
  engine.OnAlarm(0);
  for (Tick t = 0; t < 2000; ++t) {
    cl.RunTick();
    engine.OnTick();
    evac_actuator.OnTick();
    evacuation.OnTick();
  }

  // Pinned against actuation_golden_test.cpp's MigrateVictimSeed42 —
  // captured BEFORE the host-chaos plane existed.
  EXPECT_EQ(alarm_tick, 4550);
  EXPECT_EQ(engine.mitigation_tick(), 4550);
  EXPECT_EQ(engine.victim().host, 1);
  EXPECT_EQ(telemetry.audit().size(), 177u);
  Fingerprinter h;
  for (const auto& rec : telemetry.audit().records()) {
    h.U64(static_cast<std::uint64_t>(rec.tick));
    h.Str(rec.detector);
    h.Str(rec.check);
    h.Str(rec.channel);
    h.F64(rec.value);
    h.F64(rec.lower);
    h.F64(rec.upper);
    h.F64(rec.margin);
    h.U64(rec.violation ? 1 : 0);
    h.U64(static_cast<std::uint64_t>(rec.consecutive));
    h.U64(rec.alarm ? 1 : 0);
  }
  EXPECT_EQ(h.hash(), 18261495189989815477ull);
  EXPECT_EQ(telemetry.tracer().emitted(), 30315u);
  EXPECT_EQ(cl.counters(engine.victim()).llc_accesses, 982730u);

  // And the chaos plane itself never moved.
  EXPECT_EQ(lifecycle.stats().injected_total(), 0u);
  EXPECT_TRUE(lifecycle.transitions().empty());
  EXPECT_EQ(evacuation.stats().started, 0u);
  EXPECT_TRUE(evacuation.quiescent());
}

TEST(HostChaosTransparencyTest, HandoffModeDoesNotPerturbTheWorld) {
  // Warm vs cold handoff must change ONLY detector-internal state: the
  // forced-migration schedule, handoff event placements, and host timeline
  // are bit-identical across the two sides of any cell.
  HostChaosRunConfig config;
  config.attack_start = 500;
  config.horizon = 3000;
  config.migrate_every = 400;
  config.params.window = 100;
  config.params.step = 25;
  config.params.h_c = 8;
  const HostChaosRunResult warm = RunHostChaosRun(config, /*seed=*/31);
  config.warm_handoff = false;
  const HostChaosRunResult cold = RunHostChaosRun(config, /*seed=*/31);

  ASSERT_EQ(warm.migrations, cold.migrations);
  ASSERT_EQ(warm.handoff_events.size(), cold.handoff_events.size());
  for (std::size_t i = 0; i < warm.handoff_events.size(); ++i) {
    EXPECT_EQ(warm.handoff_events[i].tick, cold.handoff_events[i].tick);
    EXPECT_EQ(warm.handoff_events[i].from.host,
              cold.handoff_events[i].from.host);
    EXPECT_EQ(warm.handoff_events[i].to.host, cold.handoff_events[i].to.host);
  }
  EXPECT_EQ(warm.transitions.size(), cold.transitions.size());
  EXPECT_EQ(warm.attacked_serving_ticks, cold.attacked_serving_ticks);
}

}  // namespace
}  // namespace sds::eval
