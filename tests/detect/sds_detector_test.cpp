#include "detect/sds_detector.h"

#include <gtest/gtest.h>

#include "common/snapshot.h"
#include "eval/experiment.h"
#include "eval/scenario.h"

namespace sds::detect {
namespace {

struct Rig {
  eval::Scenario scenario;
  SdsProfile profile;
  DetectorParams params;

  Rig(const std::string& app, eval::AttackKind attack, Tick attack_start,
      std::uint64_t seed) {
    eval::ScenarioConfig base;
    base.app = app;
    const auto clean = eval::CollectCleanSamples(base, 12000, seed + 1000);
    profile = BuildSdsProfile(clean, params);

    eval::ScenarioConfig cfg;
    cfg.app = app;
    cfg.attack = attack;
    cfg.attack_start = attack_start;
    cfg.seed = seed;
    scenario = eval::BuildScenario(cfg);
  }

  void Run(Detector& detector, Tick ticks) {
    for (Tick t = 0; t < ticks; ++t) {
      scenario.hypervisor->RunTick();
      detector.OnTick();
    }
  }
};

TEST(SdsDetectorTest, ModeNames) {
  EXPECT_STREQ(SdsModeName(SdsMode::kBoundaryOnly), "SDS/B");
  EXPECT_STREQ(SdsModeName(SdsMode::kPeriodOnly), "SDS/P");
  EXPECT_STREQ(SdsModeName(SdsMode::kCombined), "SDS");
}

TEST(SdsDetectorTest, AttachesOneMonitor) {
  Rig rig("kmeans", eval::AttackKind::kNone, 0, 1);
  SdsDetector det(*rig.scenario.hypervisor, rig.scenario.victim, rig.profile,
                  rig.params, SdsMode::kCombined);
  EXPECT_EQ(rig.scenario.hypervisor->active_monitors(), 1);
}

TEST(SdsDetectorTest, QuietOnCleanRun) {
  Rig rig("bayes", eval::AttackKind::kNone, 0, 2);
  SdsDetector det(*rig.scenario.hypervisor, rig.scenario.victim, rig.profile,
                  rig.params, SdsMode::kCombined);
  rig.Run(det, 8000);
  EXPECT_EQ(det.alarm_events(), 0u);
  EXPECT_FALSE(det.attack_active());
}

TEST(SdsDetectorTest, DetectsBusLockOnNonPeriodicApp) {
  Rig rig("bayes", eval::AttackKind::kBusLock, 2000, 3);
  SdsDetector det(*rig.scenario.hypervisor, rig.scenario.victim, rig.profile,
                  rig.params, SdsMode::kCombined);
  rig.Run(det, 2000);
  EXPECT_FALSE(det.attack_active());
  rig.Run(det, 6000);
  EXPECT_TRUE(det.attack_active());
  EXPECT_GE(det.alarm_events(), 1u);
  EXPECT_GE(det.last_alarm_trigger_tick(), 2000);
}

TEST(SdsDetectorTest, DetectsCleansingOnNonPeriodicApp) {
  Rig rig("aggregation", eval::AttackKind::kLlcCleansing, 2000, 4);
  SdsDetector det(*rig.scenario.hypervisor, rig.scenario.victim, rig.profile,
                  rig.params, SdsMode::kBoundaryOnly);
  rig.Run(det, 8000);
  EXPECT_TRUE(det.attack_active());
}

TEST(SdsDetectorTest, BoundaryOnlyIgnoresPeriodState) {
  Rig rig("facenet", eval::AttackKind::kBusLock, 2000, 5);
  ASSERT_TRUE(rig.profile.periodic());
  SdsDetector det(*rig.scenario.hypervisor, rig.scenario.victim, rig.profile,
                  rig.params, SdsMode::kBoundaryOnly);
  rig.Run(det, 8000);
  EXPECT_TRUE(det.attack_active());
  EXPECT_TRUE(det.boundary_active());
}

TEST(SdsDetectorTest, PeriodOnlyDetectsOnPeriodicApp) {
  Rig rig("facenet", eval::AttackKind::kBusLock, 3000, 6);
  ASSERT_TRUE(rig.profile.periodic());
  SdsDetector det(*rig.scenario.hypervisor, rig.scenario.victim, rig.profile,
                  rig.params, SdsMode::kPeriodOnly);
  rig.Run(det, 3000);
  EXPECT_FALSE(det.attack_active());
  rig.Run(det, 9000);
  EXPECT_TRUE(det.attack_active());
  EXPECT_TRUE(det.period_active());
}

TEST(SdsDetectorTest, CombinedOnPeriodicRequiresBothSchemes) {
  Rig rig("facenet", eval::AttackKind::kBusLock, 3000, 7);
  ASSERT_TRUE(rig.profile.periodic());
  SdsDetector det(*rig.scenario.hypervisor, rig.scenario.victim, rig.profile,
                  rig.params, SdsMode::kCombined);
  rig.Run(det, 12000);
  ASSERT_TRUE(det.attack_active());
  EXPECT_TRUE(det.boundary_active());
  EXPECT_TRUE(det.period_active());
}

TEST(SdsDetectorTest, PeriodOnlyWithoutPeriodicProfileAborts) {
  Rig rig("bayes", eval::AttackKind::kNone, 0, 8);
  ASSERT_FALSE(rig.profile.periodic());
  EXPECT_DEATH(SdsDetector(*rig.scenario.hypervisor, rig.scenario.victim,
                           rig.profile, rig.params, SdsMode::kPeriodOnly),
               "periodic profile");
}

TEST(SdsDetectorTest, AlarmEventsCountRisingEdges) {
  Rig rig("kmeans", eval::AttackKind::kBusLock, 2000, 9);
  SdsDetector det(*rig.scenario.hypervisor, rig.scenario.victim, rig.profile,
                  rig.params, SdsMode::kCombined);
  rig.Run(det, 10000);
  ASSERT_TRUE(det.attack_active());
  const auto events = det.alarm_events();
  // Continuing the attack must not spawn new events while latched.
  rig.Run(det, 1000);
  EXPECT_TRUE(det.attack_active());
  EXPECT_EQ(det.alarm_events(), events);
}

// Pins a live detector's snapshot payload and configuration fingerprint at
// a fixed tick of two seeded runs, one non-periodic and one periodic: the
// analyzer section's layout, the profile's field order and every decision
// up to that tick must stay as they are.
TEST(SdsDetectorTest, SnapshotPayloadAndFingerprintArePinned) {
  struct Pin {
    const char* app;
    eval::AttackKind attack;
    bool periodic;
    std::uint64_t state_fnv;
    std::uint64_t config_fingerprint;
  };
  const Pin pins[] = {
      {"kmeans", eval::AttackKind::kBusLock, false, 0x74a9e033c66a4219ULL,
       0x8505907c445a44c7ULL},
      {"pca", eval::AttackKind::kLlcCleansing, true, 0x94578354367dea15ULL,
       0x092f6ba1b15fbb4cULL},
  };
  for (const Pin& pin : pins) {
    Rig rig(pin.app, pin.attack, 3000, 31);
    SdsDetector det(*rig.scenario.hypervisor, rig.scenario.victim,
                    rig.profile, rig.params, SdsMode::kCombined);
    rig.Run(det, 6000);
    ASSERT_EQ(rig.profile.periodic(), pin.periodic) << pin.app;
    SnapshotWriter w;
    det.SaveState(w);
    EXPECT_EQ(Fnv1a(w.data()), pin.state_fnv) << pin.app;
    EXPECT_EQ(det.ConfigFingerprint(), pin.config_fingerprint) << pin.app;
  }
}

}  // namespace
}  // namespace sds::detect
