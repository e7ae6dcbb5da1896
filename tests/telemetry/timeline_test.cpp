#include "telemetry/timeline.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/types.h"
#include "detect/sds_detector.h"
#include "eval/experiment.h"
#include "eval/scenario.h"
#include "telemetry/telemetry.h"

namespace sds::telemetry {
namespace {

AuditRecord Check(Tick tick, const char* detector, bool violation,
                  int consecutive, bool alarm) {
  AuditRecord r;
  r.tick = tick;
  r.detector = detector;
  r.check = "boundary";
  r.channel = "AccessNum";
  r.violation = violation;
  r.consecutive = consecutive;
  r.alarm = alarm;
  return r;
}

AuditRecord Mitigation(Tick tick) {
  AuditRecord r;
  r.tick = tick;
  r.detector = "engine";
  r.check = "mitigation";
  r.channel = "";
  return r;
}

// Canonical synthetic episode: attack at t=1000, detector checks at 900
// (pre-attack), 1100 (clean), 1200 (first violation of the streak), 1300
// (second violation -> alarm), mitigation actuated at 1350.
void AppendCanonicalEpisode(Telemetry& telemetry) {
  auto& audit = telemetry.audit();
  audit.Append(Check(900, "SDS", false, 0, false));
  audit.Append(Check(1100, "SDS", false, 0, false));
  audit.Append(Check(1200, "SDS", true, 1, false));
  audit.Append(Check(1300, "SDS", true, 2, true));
  audit.Append(Mitigation(1350));
  audit.Append(Check(1400, "SDS", true, 3, true));  // alarm held: no new edge
}

TEST(Timeline, DecomposesDetectionDelayByStage) {
  Telemetry telemetry;
  AppendCanonicalEpisode(telemetry);

  const auto incidents =
      ReconstructIncidents(telemetry, {.attack_start = 1000});
  ASSERT_EQ(incidents.size(), 1u);
  const Incident& inc = incidents[0];
  EXPECT_EQ(inc.detector, "SDS");
  EXPECT_EQ(inc.channel, "AccessNum");
  EXPECT_EQ(inc.attack_start, 1000);
  EXPECT_EQ(inc.first_check, 1100);
  EXPECT_EQ(inc.streak_start, 1200);
  EXPECT_EQ(inc.alarm, 1300);
  EXPECT_EQ(inc.mitigation, 1350);

  EXPECT_EQ(inc.delay.sampling_wait, 100);
  EXPECT_EQ(inc.delay.detector_compute, 100);
  EXPECT_EQ(inc.delay.debounce, 100);
  EXPECT_EQ(inc.delay.mitigation, 50);
  // The three detection stages partition the headline delay exactly.
  EXPECT_EQ(inc.delay.detection_total(), inc.alarm - inc.attack_start);
}

TEST(Timeline, AttackStartRecoveredFromTracerMarker) {
  Telemetry telemetry;
  telemetry.tracer().Emit(
      MakeEvent(1000, Layer::kEval, "attack_phase_begin").Str("scheme", "B1"));
  AppendCanonicalEpisode(telemetry);

  const auto incidents = ReconstructIncidents(telemetry);
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].attack_start, 1000);
  EXPECT_EQ(incidents[0].delay.detection_total(), 300);
}

TEST(Timeline, NoAttackInfoMeansNoIncidents) {
  Telemetry telemetry;
  AppendCanonicalEpisode(telemetry);
  EXPECT_TRUE(ReconstructIncidents(telemetry).empty());
}

TEST(Timeline, PreAttackAlarmEdgesAreIgnored) {
  Telemetry telemetry;
  auto& audit = telemetry.audit();
  // A false positive long before the attack: rising edge at t=500.
  audit.Append(Check(400, "SDS", true, 1, false));
  audit.Append(Check(500, "SDS", true, 2, true));
  audit.Append(Check(600, "SDS", true, 3, true));
  EXPECT_TRUE(
      ReconstructIncidents(telemetry, {.attack_start = 1000}).empty());
}

TEST(Timeline, SeparateIncidentsPerRisingEdge) {
  Telemetry telemetry;
  auto& audit = telemetry.audit();
  audit.Append(Check(1100, "SDS", true, 1, false));
  audit.Append(Check(1200, "SDS", true, 2, true));   // incident 1
  audit.Append(Check(1300, "SDS", false, 0, false));  // alarm clears
  audit.Append(Check(1400, "SDS", true, 1, false));
  audit.Append(Check(1500, "SDS", true, 2, true));   // incident 2

  const auto incidents =
      ReconstructIncidents(telemetry, {.attack_start = 1000});
  ASSERT_EQ(incidents.size(), 2u);
  EXPECT_EQ(incidents[0].alarm, 1200);
  EXPECT_EQ(incidents[0].streak_start, 1100);
  EXPECT_EQ(incidents[1].alarm, 1500);
  EXPECT_EQ(incidents[1].streak_start, 1400);
  // No mitigation wired up: that stage contributes zero delay.
  EXPECT_EQ(incidents[0].mitigation, kInvalidTick);
  EXPECT_EQ(incidents[0].delay.mitigation, 0);
}

TEST(Timeline, FirstContentionJoinedFromTracerEvents) {
  Telemetry telemetry;
  telemetry.tracer().Emit(
      MakeEvent(950, Layer::kSimBus, "bus_saturated"));  // pre-attack: skip
  telemetry.tracer().Emit(MakeEvent(1050, Layer::kSimBus, "bus_saturated"));
  telemetry.tracer().Emit(
      MakeEvent(1060, Layer::kSimCache, "cross_owner_eviction"));
  AppendCanonicalEpisode(telemetry);

  const auto incidents =
      ReconstructIncidents(telemetry, {.attack_start = 1000});
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].first_contention, 1050);
}

TEST(Timeline, ReportNamesEveryStage) {
  Telemetry telemetry;
  telemetry.tracer().Emit(MakeEvent(1050, Layer::kSimBus, "bus_saturated"));
  AppendCanonicalEpisode(telemetry);
  const auto incidents =
      ReconstructIncidents(telemetry, {.attack_start = 1000});

  std::ostringstream os;
  WriteIncidentReport(os, incidents, telemetry);
  const std::string report = os.str();
  EXPECT_NE(report.find("incident #1"), std::string::npos);
  EXPECT_NE(report.find("first contention"), std::string::npos);
  EXPECT_NE(report.find("sampling wait"), std::string::npos);
  EXPECT_NE(report.find("detector compute"), std::string::npos);
  EXPECT_NE(report.find("debounce"), std::string::npos);
  EXPECT_NE(report.find("actuation"), std::string::npos);
  EXPECT_NE(report.find("detection delay"), std::string::npos);
}

TEST(Timeline, EmptyReportStatesSo) {
  Telemetry telemetry;
  std::ostringstream os;
  WriteIncidentReport(os, {}, telemetry);
  EXPECT_NE(os.str().find("no post-attack alarm incidents"),
            std::string::npos);
}

// End-to-end: the quickstart scenario (kmeans victim, bus-locking attacker,
// SDS combined detector) must yield a reconstructable incident whose stage
// decomposition partitions the measured detection delay exactly.
TEST(Timeline, QuickstartScenarioDecompositionSumsToDetectionDelay) {
  const TickClock clock;
  Telemetry telemetry;

  eval::ScenarioConfig base;
  base.app = "kmeans";
  const auto clean_samples =
      eval::CollectCleanSamples(base, clock.ToTicks(60.0), /*seed=*/7);
  detect::DetectorParams params;
  const detect::SdsProfile profile =
      detect::BuildSdsProfile(clean_samples, params);

  eval::ScenarioConfig cfg;
  cfg.app = "kmeans";
  cfg.attack = eval::AttackKind::kBusLock;
  cfg.attack_start = clock.ToTicks(60.0);
  cfg.seed = 42;
  cfg.machine.telemetry = &telemetry;
  eval::Scenario scenario = eval::BuildScenario(cfg);

  detect::SdsDetector detector(*scenario.hypervisor, scenario.victim, profile,
                               params, detect::SdsMode::kCombined);

  const Tick total = clock.ToTicks(120.0);
  Tick alarm_tick = kInvalidTick;
  for (Tick t = 0; t < total; ++t) {
    scenario.hypervisor->RunTick();
    detector.OnTick();
    if (alarm_tick == kInvalidTick && detector.attack_active()) {
      alarm_tick = scenario.hypervisor->now();
    }
  }
  ASSERT_NE(alarm_tick, kInvalidTick) << "SDS never alarmed on the attack";

  const auto incidents = ReconstructIncidents(
      telemetry, {.attack_start = cfg.attack_start});
  ASSERT_FALSE(incidents.empty());
  const Incident& inc = incidents[0];
  EXPECT_EQ(inc.attack_start, cfg.attack_start);
  EXPECT_GT(inc.alarm, cfg.attack_start);
  EXPECT_FALSE(inc.detector.empty());
  EXPECT_FALSE(inc.channel.empty());
  // Causal ordering of the chain.
  EXPECT_GE(inc.first_check, inc.attack_start);
  EXPECT_GE(inc.streak_start, inc.first_check);
  EXPECT_GE(inc.alarm, inc.streak_start);
  // The decomposition partitions the headline delay with no gap or overlap.
  EXPECT_EQ(inc.delay.detection_total(), inc.alarm - inc.attack_start);

  std::ostringstream os;
  WriteIncidentReport(os, incidents, telemetry);
  EXPECT_NE(os.str().find("detection delay"), std::string::npos);
}

// Regression: the bench_perf_baseline scenario (kmeans victim, bus-locking
// attacker from t=3000, 6000 ticks, default ring). Traced one event per op,
// its ~970k lock windows and evictions overflow the 65,536-slot ring, the
// attack's first contention is dropped and the report puts it after the
// alarm. Traced as one aggregate per (tick, owner, kind), nothing is dropped
// and the chain is causal.
TEST(Timeline, PerfBaselineScenarioKeepsFirstContentionBeforeTheAlarm) {
  const TickClock clock;
  const std::uint64_t seed = 42;
  Telemetry telemetry;

  eval::ScenarioConfig base;
  base.app = "kmeans";
  const auto clean_samples =
      eval::CollectCleanSamples(base, clock.ToTicks(120.0), seed + 1);
  detect::DetectorParams params;
  const detect::SdsProfile profile =
      detect::BuildSdsProfile(clean_samples, params);

  eval::ScenarioConfig cfg;
  cfg.app = "kmeans";
  cfg.attack = eval::AttackKind::kBusLock;
  cfg.attack_start = 3000;
  cfg.seed = seed;
  cfg.machine.telemetry = &telemetry;
  eval::Scenario scenario = eval::BuildScenario(cfg);
  detect::SdsDetector detector(*scenario.hypervisor, scenario.victim, profile,
                               params, detect::SdsMode::kCombined);
  for (Tick t = 0; t < 6000; ++t) {
    scenario.hypervisor->RunTick();
    detector.OnTick();
  }

  EXPECT_EQ(telemetry.tracer().capacity(), EventTracer::kDefaultCapacity);
  EXPECT_EQ(telemetry.tracer().dropped(), 0u);
  const auto incidents = ReconstructIncidents(
      telemetry, {.attack_start = cfg.attack_start});
  ASSERT_FALSE(incidents.empty());
  const Incident& inc = incidents[0];
  ASSERT_NE(inc.first_contention, kInvalidTick);
  EXPECT_GE(inc.first_contention, inc.attack_start);
  EXPECT_LE(inc.first_contention, inc.alarm);
}

}  // namespace
}  // namespace sds::telemetry
