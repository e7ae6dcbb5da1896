#include "detect/forensics.h"

#include <sstream>
#include <string_view>

#include <gtest/gtest.h>

#include "eval/scenario.h"
#include "telemetry/telemetry.h"

namespace sds::detect {
namespace {

eval::Scenario AttackScenario(eval::AttackKind kind,
                              telemetry::Telemetry* tel = nullptr) {
  eval::ScenarioConfig cfg;
  cfg.app = "bayes";
  cfg.attack = kind;
  cfg.attack_start = 0;
  cfg.machine.attribution = true;
  cfg.machine.telemetry = tel;
  cfg.seed = 17;
  return eval::BuildScenario(cfg);
}

void Drive(eval::Scenario& s, ForensicsEngine& engine, int ticks) {
  for (int t = 0; t < ticks; ++t) {
    s.hypervisor->RunTick();
    engine.OnTick();
  }
}

TEST(ForensicsTest, CleansingAttackerIsPrimeSuspect) {
  eval::Scenario s = AttackScenario(eval::AttackKind::kLlcCleansing);
  ForensicsEngine engine(*s.hypervisor, s.victim);
  Drive(s, engine, 200);
  const ForensicReport& r = engine.OnAlarm(s.hypervisor->now());
  EXPECT_TRUE(r.attributed);
  EXPECT_EQ(r.prime_suspect, s.attacker);
  ASSERT_FALSE(r.suspects.empty());
  EXPECT_EQ(r.suspects.front().vm, s.attacker);
  EXPECT_GE(r.suspects.front().score, kForensicMinScore);
  EXPECT_GT(r.suspects.front().evictions, 0u);
}

TEST(ForensicsTest, BusLockAttackerIsPrimeSuspect) {
  eval::Scenario s = AttackScenario(eval::AttackKind::kBusLock);
  ForensicsEngine engine(*s.hypervisor, s.victim);
  Drive(s, engine, 200);
  const ForensicReport& r = engine.OnAlarm(s.hypervisor->now());
  EXPECT_TRUE(r.attributed);
  EXPECT_EQ(r.prime_suspect, s.attacker);
  EXPECT_GT(r.suspects.front().bus_delay, 0u);
}

TEST(ForensicsTest, SuspectsSortedByScoreThenVm) {
  eval::Scenario s = AttackScenario(eval::AttackKind::kLlcCleansing);
  ForensicsEngine engine(*s.hypervisor, s.victim);
  Drive(s, engine, 150);
  const ForensicReport& r = engine.OnAlarm(s.hypervisor->now());
  for (std::size_t i = 1; i < r.suspects.size(); ++i) {
    const SuspectEvidence& a = r.suspects[i - 1];
    const SuspectEvidence& b = r.suspects[i];
    EXPECT_TRUE(a.score > b.score || (a.score == b.score && a.vm < b.vm));
  }
  // Neither the target nor the owner-0 sentinel may appear as a suspect.
  for (const SuspectEvidence& sus : r.suspects) {
    EXPECT_NE(sus.vm, s.victim);
    EXPECT_NE(sus.vm, 0u);
  }
}

TEST(ForensicsTest, KstestAgreementTracksCulprit) {
  eval::Scenario s = AttackScenario(eval::AttackKind::kLlcCleansing);
  ForensicsEngine engine(*s.hypervisor, s.victim);
  Drive(s, engine, 150);
  const ForensicReport agree = engine.OnAlarm(s.hypervisor->now(), s.attacker);
  EXPECT_TRUE(agree.kstest_agrees);
  s.hypervisor->RunTick();
  engine.OnTick();
  const ForensicReport disagree =
      engine.OnAlarm(s.hypervisor->now(), s.victim + 6);
  EXPECT_FALSE(disagree.kstest_agrees);
  s.hypervisor->RunTick();
  engine.OnTick();
  // An inconclusive KStest sweep (culprit 0) never counts as agreement.
  const ForensicReport none = engine.OnAlarm(s.hypervisor->now(), 0);
  EXPECT_FALSE(none.kstest_agrees);
  EXPECT_EQ(engine.reports().size(), 3u);
}

TEST(ForensicsTest, EvidenceTimelineAlignsWithAlarm) {
  eval::Scenario s = AttackScenario(eval::AttackKind::kLlcCleansing);
  ForensicsEngine engine(*s.hypervisor, s.victim);
  Drive(s, engine, 150);
  const Tick alarm = s.hypervisor->now();
  const ForensicReport& r = engine.OnAlarm(alarm);
  ASSERT_TRUE(r.attributed);
  ASSERT_NE(r.first_evidence_tick, kInvalidTick);
  EXPECT_GE(r.first_evidence_tick, r.window_start);
  EXPECT_LE(r.first_evidence_tick, r.window_end);
  EXPECT_EQ(r.evidence_lead_ticks, alarm - r.first_evidence_tick);
  // The cleansing attack leaves evidence well before a realistic alarm.
  EXPECT_GT(r.evidence_lead_ticks, 0);
}

TEST(ForensicsTest, BenignLoadStaysUnattributed) {
  eval::ScenarioConfig cfg;
  cfg.app = "bayes";
  cfg.machine.attribution = true;
  cfg.seed = 23;
  eval::Scenario s = eval::BuildScenario(cfg);
  ForensicsEngine engine(*s.hypervisor, s.victim);
  Drive(s, engine, 200);
  const ForensicReport& r = engine.OnAlarm(s.hypervisor->now());
  // Seven symmetric benign utilities split the evidence; nobody clears the
  // min_score bar, so a false-positive alarm stays explicitly unattributed.
  EXPECT_FALSE(r.attributed);
  EXPECT_EQ(r.prime_suspect, 0u);
  EXPECT_EQ(r.first_evidence_tick, kInvalidTick);
}

TEST(ForensicsTest, WindowIsBoundedByConfig) {
  eval::Scenario s = AttackScenario(eval::AttackKind::kLlcCleansing);
  ForensicsConfig cfg;
  cfg.window_spans = 32;
  ForensicsEngine engine(*s.hypervisor, s.victim, cfg);
  Drive(s, engine, 100);
  EXPECT_EQ(engine.window_size(), 32u);
  const ForensicReport& r = engine.OnAlarm(s.hypervisor->now());
  EXPECT_EQ(r.window_end - r.window_start + 1, 32);
}

TEST(ForensicsTest, AlarmEmitsAuditAndTrace) {
  telemetry::Telemetry tel;
  eval::Scenario s = AttackScenario(eval::AttackKind::kLlcCleansing, &tel);
  ForensicsEngine engine(*s.hypervisor, s.victim);
  Drive(s, engine, 150);
  engine.OnAlarm(s.hypervisor->now(), s.attacker);
  bool audited = false;
  for (const telemetry::AuditRecord& rec : tel.audit().records()) {
    if (std::string_view(rec.detector) == "Forensics") {
      audited = true;
      EXPECT_TRUE(rec.violation);
      EXPECT_STREQ(rec.check, "forensics");
    }
  }
  EXPECT_TRUE(audited);
  bool traced = false;
  for (std::size_t i = 0; i < tel.tracer().retained(); ++i) {
    if (std::string_view(tel.tracer().event(i).name) == "forensic_report") {
      traced = true;
    }
  }
  EXPECT_TRUE(traced);
}

TEST(ForensicsTest, ReportRenderingsAreStable) {
  eval::Scenario s = AttackScenario(eval::AttackKind::kLlcCleansing);
  ForensicsEngine engine(*s.hypervisor, s.victim);
  Drive(s, engine, 150);
  const ForensicReport& r = engine.OnAlarm(s.hypervisor->now(), s.attacker);
  std::ostringstream json;
  WriteForensicReportJson(json, r);
  EXPECT_NE(json.str().find("\"type\":\"forensic_report\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"prime_suspect\":2"), std::string::npos);
  std::ostringstream text;
  WriteForensicReportText(text, r);
  EXPECT_NE(text.str().find("prime suspect: VM 2"), std::string::npos);
  EXPECT_NE(text.str().find("agrees"), std::string::npos);
  // Rendering is a pure function of the report.
  std::ostringstream json2;
  WriteForensicReportJson(json2, r);
  EXPECT_EQ(json.str(), json2.str());
}

}  // namespace
}  // namespace sds::detect
