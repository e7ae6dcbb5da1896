// Actuation transparency pin.
//
// The actuation-plane rework routes every mitigation through the Actuator
// seam with retry / escalation / verification machinery wrapped around it.
// This test proves the seam is bit-transparent when the fault plan is null:
// the full detect -> alarm -> mitigate pipeline produces IDENTICAL alarm
// ticks, victim placements, audit streams (hashed field-by-field) and event
// counts to the pre-actuation-plane engine. The constants were captured from
// the one-shot MitigationEngine before the rework; drift here is a behavior
// change in the default (fault-free) control plane and must be justified,
// not re-golded casually. `emitted` counts the machine's cross-owner
// eviction and lock-window events as one aggregate per (tick, owner, kind),
// whose summed `count` fields equal the sim.cache.cross_owner_evictions and
// sim.bus.atomic_locks counters.
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "attacks/bus_lock_attacker.h"
#include "attacks/scheduled_workload.h"
#include "cluster/mitigation.h"
#include "common/snapshot.h"
#include "detect/sds_detector.h"
#include "eval/experiment.h"
#include "telemetry/telemetry.h"
#include "workloads/catalog.h"

namespace sds::eval {
namespace {

struct GoldenSummary {
  Tick alarm_tick = -1;
  Tick mitigation_tick = kInvalidTick;
  cluster::MitigationPolicy applied = cluster::MitigationPolicy::kNone;
  int victim_host = -1;
  std::uint64_t victim_id = 0;
  std::uint64_t audit_records = 0;
  std::uint64_t audit_hash = 0;
  std::uint64_t emitted = 0;
  std::uint64_t accesses = 0;
};

GoldenSummary RunGolden(cluster::MitigationPolicy policy, bool attribute,
                        std::uint64_t seed) {
  telemetry::Telemetry telemetry;

  detect::DetectorParams params;
  ScenarioConfig base;
  base.app = "kmeans";
  const auto clean = CollectCleanSamples(base, 4000, seed + 1);
  const auto profile = detect::BuildSdsProfile(clean, params);

  cluster::HostConfig host;
  host.machine.telemetry = &telemetry;
  cluster::Cluster cl(2, host, seed);
  const Tick attack_start = 3000;
  const cluster::VmRef victim =
      cl.Deploy(0, "victim", [] { return workloads::MakeApp("kmeans"); });
  const cluster::VmRef attacker = cl.Deploy(0, "attacker", [attack_start] {
    return std::make_unique<attacks::ScheduledWorkload>(
        std::make_unique<attacks::BusLockAttacker>(attacks::BusLockConfig{}),
        attack_start, -1);
  });
  for (int i = 0; i < 3; ++i) {
    cl.Deploy(0, "benign", [] { return workloads::MakeBenignUtility(); });
  }

  detect::SdsDetector detector(cl.hypervisor(0), victim.id, profile, params,
                               detect::SdsMode::kCombined);
  // Legacy constructor: null fault plan, no verification. Must
  // reproduce the one-shot engine bit-for-bit.
  cluster::MitigationEngine engine(cl, victim,
                                   {.policy = policy, .spare_host = 1});

  GoldenSummary g;
  for (Tick t = 0; t < attack_start; ++t) {
    cl.RunTick();
    detector.OnTick();
    engine.OnTick();
  }
  for (Tick t = 0; t < 6000; ++t) {
    cl.RunTick();
    detector.OnTick();
    engine.OnTick();
    if (detector.attack_active()) {
      g.alarm_tick = cl.now();
      break;
    }
  }
  if (g.alarm_tick >= 0) {
    engine.OnAlarm(attribute ? attacker.id : 0);
  }
  // The capture run ticked the bare cluster after the alarm; the engine is
  // settled by then, so OnTick must stay inert (part of what's pinned).
  for (Tick t = 0; t < 2000; ++t) {
    cl.RunTick();
    engine.OnTick();
  }

  EXPECT_EQ(engine.state(), cluster::MitigationState::kSettled);
  EXPECT_EQ(engine.settled_tick(), engine.mitigation_tick());
  EXPECT_EQ(engine.stats().retries, 0u);
  EXPECT_EQ(engine.stats().escalations, 0u);

  g.mitigation_tick = engine.mitigation_tick();
  g.applied = engine.applied_policy();
  g.victim_host = engine.victim().host;
  g.victim_id = engine.victim().id;
  g.audit_records = telemetry.audit().size();
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
  g.audit_hash = h.hash();
  g.emitted = telemetry.tracer().emitted();
  g.accesses = cl.counters(engine.victim()).llc_accesses;
  return g;
}

TEST(ActuationGoldenTest, MigrateVictimSeed42) {
  const GoldenSummary g =
      RunGolden(cluster::MitigationPolicy::kMigrateVictim, false, 42);
  EXPECT_EQ(g.alarm_tick, 4550);
  EXPECT_EQ(g.mitigation_tick, 4550);
  EXPECT_EQ(g.applied, cluster::MitigationPolicy::kMigrateVictim);
  EXPECT_EQ(g.victim_host, 1);
  EXPECT_EQ(g.victim_id, 1u);
  EXPECT_EQ(g.audit_records, 177u);
  EXPECT_EQ(g.audit_hash, 18261495189989815477ull);
  EXPECT_EQ(g.emitted, 30315u);
  EXPECT_EQ(g.accesses, 982730u);
}

TEST(ActuationGoldenTest, QuarantineAttributedSeed42) {
  const GoldenSummary g =
      RunGolden(cluster::MitigationPolicy::kQuarantineAttacker, true, 42);
  EXPECT_EQ(g.alarm_tick, 4550);
  EXPECT_EQ(g.mitigation_tick, 4550);
  EXPECT_EQ(g.applied, cluster::MitigationPolicy::kQuarantineAttacker);
  EXPECT_EQ(g.victim_host, 0);
  EXPECT_EQ(g.victim_id, 1u);
  EXPECT_EQ(g.audit_hash, 16051581706462009017ull);
  EXPECT_EQ(g.emitted, 27094u);
  EXPECT_EQ(g.accesses, 2873980u);
}

TEST(ActuationGoldenTest, QuarantineUnattributedFallsBackSeed42) {
  const GoldenSummary g =
      RunGolden(cluster::MitigationPolicy::kQuarantineAttacker, false, 42);
  EXPECT_EQ(g.alarm_tick, 4550);
  EXPECT_EQ(g.mitigation_tick, 4550);
  // Unattributed quarantine falls back to migrating the victim; pinned to
  // match the migrate-victim run exactly.
  EXPECT_EQ(g.applied, cluster::MitigationPolicy::kMigrateVictim);
  EXPECT_EQ(g.victim_host, 1);
  EXPECT_EQ(g.audit_hash, 16582245344652577492ull);
  EXPECT_EQ(g.emitted, 30315u);
  EXPECT_EQ(g.accesses, 982730u);
}

}  // namespace
}  // namespace sds::eval
