// Warm detector-state handoff (src/obs/handoff.h): a detector packed on the
// source host and applied on the destination continues the un-migrated
// run's alarm sequence bit-identically; any envelope rejection is a LOUD
// cold start that leaves the destination detector untouched.
#include "obs/handoff.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "detect/sds_detector.h"
#include "eval/experiment.h"
#include "eval/scenario.h"

namespace sds::obs {
namespace {

using detect::DetectorParams;
using detect::SdsDetector;
using detect::SdsMode;
using detect::SdsProfile;

// Fast-deciding parameters so the scenario alarms within a short run.
DetectorParams FastParams() {
  DetectorParams params;
  params.window = 100;
  params.step = 25;
  params.h_c = 8;
  return params;
}

struct SdsRig {
  eval::Scenario scenario;
  SdsProfile profile;
  DetectorParams params = FastParams();

  SdsRig(Tick attack_start, std::uint64_t seed) {
    eval::ScenarioConfig base;
    base.app = "kmeans";
    const auto clean = eval::CollectCleanSamples(base, 3000, seed + 1000);
    profile = BuildSdsProfile(clean, params);

    eval::ScenarioConfig cfg;
    cfg.app = "kmeans";
    cfg.attack = eval::AttackKind::kBusLock;
    cfg.attack_start = attack_start;
    cfg.seed = seed;
    scenario = eval::BuildScenario(cfg);
  }

  std::unique_ptr<SdsDetector> MakeDetector() {
    return std::make_unique<SdsDetector>(*scenario.hypervisor,
                                         scenario.victim, profile, params,
                                         SdsMode::kCombined);
  }
};

template <typename Detector>
void RunTrace(eval::Scenario& scenario, Detector& detector, Tick ticks,
              std::vector<bool>* trace) {
  for (Tick t = 0; t < ticks; ++t) {
    scenario.hypervisor->RunTick();
    detector.OnTick();
    if (trace != nullptr) trace->push_back(detector.attack_active());
  }
}

TEST(HandoffTest, WarmHandoffContinuesAlarmSequenceBitIdentically) {
  constexpr Tick kTotal = 2600;
  constexpr Tick kMigrate = 1100;  // after the attack started

  SdsRig ref_rig(/*attack_start=*/800, /*seed=*/21);
  auto reference = ref_rig.MakeDetector();
  std::vector<bool> ref_trace;
  RunTrace(ref_rig.scenario, *reference, kTotal, &ref_trace);
  ASSERT_GE(reference->alarm_events(), 1u) << "scenario must actually alarm";

  // Identical world; the detector is packed at the migration boundary,
  // destroyed, and applied into a freshly-constructed one (the destination
  // incarnation), exactly as eval/hostchaos.cpp does on a migration.
  SdsRig rig(/*attack_start=*/800, /*seed=*/21);
  auto source = rig.MakeDetector();
  std::vector<bool> trace;
  RunTrace(rig.scenario, *source, kMigrate, &trace);
  const std::string blob = PackSdsHandoff(*source, kMigrate);
  source.reset();

  auto destination = rig.MakeDetector();
  const HandoffResult result = ApplySdsHandoff(blob, destination.get());
  EXPECT_TRUE(result.warm);
  EXPECT_EQ(result.status, SnapshotStatus::kOk);
  EXPECT_EQ(result.source_tick, kMigrate);
  RunTrace(rig.scenario, *destination, kTotal - kMigrate, &trace);

  EXPECT_EQ(trace, ref_trace);
  EXPECT_EQ(destination->alarm_events(), reference->alarm_events());
  EXPECT_EQ(destination->last_alarm_trigger_tick(),
            reference->last_alarm_trigger_tick());
}

TEST(HandoffTest, FingerprintMismatchIsLoudColdStart) {
  SdsRig rig(/*attack_start=*/800, /*seed=*/22);
  auto source = rig.MakeDetector();
  RunTrace(rig.scenario, *source, 600, nullptr);
  const std::string blob = PackSdsHandoff(*source, 600);

  // Destination configured differently (different boundary factor): the
  // envelope must reject at the fingerprint rung and the detector must stay
  // exactly as constructed — cold, no alarms, still functional.
  DetectorParams other = rig.params;
  other.boundary_k = rig.params.boundary_k * 2.0;
  const SdsProfile other_profile = BuildSdsProfile(
      eval::CollectCleanSamples([] {
        eval::ScenarioConfig base;
        base.app = "kmeans";
        return base;
      }(), 3000, 1022), other);
  auto destination = std::make_unique<SdsDetector>(
      *rig.scenario.hypervisor, rig.scenario.victim, other_profile, other,
      SdsMode::kCombined);
  const HandoffResult result = ApplySdsHandoff(blob, destination.get());
  EXPECT_FALSE(result.warm);
  EXPECT_EQ(result.status, SnapshotStatus::kBadFingerprint);
  EXPECT_EQ(destination->alarm_events(), 0u);
  EXPECT_FALSE(destination->attack_active());

  HandoffStats stats;
  stats.Count(result);
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.warm, 0u);
  EXPECT_EQ(stats.cold_fingerprint, 1u);
  EXPECT_EQ(stats.cold_other, 0u);
}

TEST(HandoffTest, CorruptBlobIsLoudColdStart) {
  SdsRig rig(/*attack_start=*/800, /*seed=*/23);
  auto source = rig.MakeDetector();
  RunTrace(rig.scenario, *source, 400, nullptr);
  std::string blob = PackSdsHandoff(*source, 400);
  blob.back() ^= 0x01;

  auto destination = rig.MakeDetector();
  const HandoffResult result = ApplySdsHandoff(blob, destination.get());
  EXPECT_FALSE(result.warm);
  EXPECT_EQ(result.status, SnapshotStatus::kBadChecksum);
  EXPECT_EQ(destination->alarm_events(), 0u);

  HandoffStats stats;
  stats.Count(result);
  EXPECT_EQ(stats.cold_other, 1u);

  // Wrong kind: a bare restart snapshot offered as a handoff rejects at the
  // kind rung, never a misparse.
  const HandoffResult cross =
      ApplySdsHandoff(SnapshotSdsDetector(*source), destination.get());
  EXPECT_FALSE(cross.warm);
  EXPECT_EQ(cross.status, SnapshotStatus::kBadKind);
}

}  // namespace
}  // namespace sds::obs
