// Warm detector-state handoff (src/obs/handoff.h): a detector packed on the
// source host — or before a monitoring restart — and applied on the
// destination continues the uninterrupted run's alarm sequence
// bit-identically; any envelope rejection is a LOUD cold start that leaves
// the destination detector untouched, and a field stream the detector
// refuses reports kCorrupt.
#include "obs/handoff.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/snapshot.h"
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
  DetectorParams params;

  SdsRig(Tick attack_start, std::uint64_t seed,
         const std::string& app = "kmeans",
         eval::AttackKind attack = eval::AttackKind::kBusLock,
         const DetectorParams& detector_params = FastParams(),
         Tick clean_ticks = 3000)
      : params(detector_params) {
    eval::ScenarioConfig base;
    base.app = app;
    const auto clean =
        eval::CollectCleanSamples(base, clean_ticks, seed + 1000);
    profile = BuildSdsProfile(clean, params);

    eval::ScenarioConfig cfg;
    cfg.app = app;
    cfg.attack = attack;
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

  // Wrong kind: another envelope of the same detector offered as a handoff
  // rejects at the kind rung, never a misparse.
  SnapshotWriter state;
  source->SaveState(state);
  const HandoffResult cross = ApplySdsHandoff(
      SealSnapshot("sds_detector", source->ConfigFingerprint(), state.data()),
      destination.get());
  EXPECT_FALSE(cross.warm);
  EXPECT_EQ(cross.status, SnapshotStatus::kBadKind);
}

// A monitoring-service restart is a handoff onto the same host: the
// detector is packed mid-run, destroyed, applied into a fresh instance and
// run forward, with the paper's default parameters over a long run.
TEST(SdsSnapshotTest, RoundTripReproducesAlarmSequence) {
  constexpr Tick kTotal = 8000;
  constexpr Tick kRestart = 3000;  // mid-run, after the attack started

  SdsRig ref_rig(2000, 31, "bayes", eval::AttackKind::kBusLock,
                 DetectorParams{}, 12000);
  auto reference = ref_rig.MakeDetector();
  std::vector<bool> ref_trace;
  RunTrace(ref_rig.scenario, *reference, kTotal, &ref_trace);
  ASSERT_GE(reference->alarm_events(), 1u);  // scenario actually alarms

  SdsRig rig(2000, 31, "bayes", eval::AttackKind::kBusLock, DetectorParams{},
             12000);
  auto first = rig.MakeDetector();
  std::vector<bool> trace;
  RunTrace(rig.scenario, *first, kRestart, &trace);
  const std::string blob = PackSdsHandoff(*first, kRestart);
  first.reset();

  auto second = rig.MakeDetector();
  ASSERT_EQ(ApplySdsHandoff(blob, second.get()).status, SnapshotStatus::kOk);
  RunTrace(rig.scenario, *second, kTotal - kRestart, &trace);

  EXPECT_EQ(trace, ref_trace);
  EXPECT_EQ(second->alarm_events(), reference->alarm_events());
  EXPECT_EQ(second->last_alarm_trigger_tick(),
            reference->last_alarm_trigger_tick());
  EXPECT_EQ(second->retraction_events(), reference->retraction_events());
}

TEST(SdsSnapshotTest, RefusesDifferentConfiguration) {
  SdsRig rig(0, 32, "bayes", eval::AttackKind::kNone, DetectorParams{},
             12000);
  auto det = rig.MakeDetector();
  const std::string blob = PackSdsHandoff(*det, 0);

  // Same scenario, different detector parameters -> different fingerprint.
  DetectorParams other_params;
  other_params.boundary_k += 1.0;
  SdsRig other(0, 32, "bayes", eval::AttackKind::kNone, other_params, 12000);
  auto mismatched = other.MakeDetector();
  EXPECT_EQ(ApplySdsHandoff(blob, mismatched.get()).status,
            SnapshotStatus::kBadFingerprint);

  // An envelope of another kind (a service checkpoint) is refused by kind.
  EXPECT_EQ(ApplySdsHandoff(SealSnapshot("svc_checkpoint",
                                         det->ConfigFingerprint(), "p"),
                            det.get())
                .status,
            SnapshotStatus::kBadKind);
}

TEST(SdsSnapshotTest, CorruptFieldStreamIsRejected) {
  SdsRig rig(0, 33, "bayes", eval::AttackKind::kNone, DetectorParams{},
             12000);
  auto det = rig.MakeDetector();

  // A well-formed envelope (right kind, fingerprint, checksum) around a
  // payload that is not a handoff field stream: a source tick and then
  // something that is not SdsDetector state, or the tick alone.
  SnapshotWriter bogus;
  bogus.U64(0);
  bogus.U32(1);
  EXPECT_EQ(ApplySdsHandoff(SealSnapshot(kSdsHandoffKind,
                                         det->ConfigFingerprint(),
                                         bogus.data()),
                            det.get())
                .status,
            SnapshotStatus::kCorrupt);
  SnapshotWriter tick_only;
  tick_only.U64(0);
  const HandoffResult result = ApplySdsHandoff(
      SealSnapshot(kSdsHandoffKind, det->ConfigFingerprint(),
                   tick_only.data()),
      det.get());
  EXPECT_FALSE(result.warm);
  EXPECT_EQ(result.status, SnapshotStatus::kCorrupt);
}

}  // namespace
}  // namespace sds::obs
