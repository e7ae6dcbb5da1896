// Attribution transparency pin: the interference ledger is a pure observer.
//
// Two guarantees, both load-bearing for the golden regression suite:
//   1. OFF is the pre-ledger simulator. Every hook the ledger added to the
//      cache/bus/machine hot paths is a null-pointer test when
//      MachineConfig::attribution is false, so the existing golden constants
//      (tests/integration/golden_regression_test.cpp) keep pinning the
//      pre-PR pipeline unchanged.
//   2. ON changes nothing observable. Enabling the ledger on the SAME seeded
//      detection run must reproduce the identical detection summary and the
//      bit-identical audit stream — attribution only remembers more, it
//      never perturbs a single sample or alarm.
#include <cstdint>

#include <gtest/gtest.h>

#include "common/snapshot.h"
#include "eval/experiment.h"
#include "telemetry/telemetry.h"

namespace sds::eval {
namespace {

// FNV-1a over every audit record (doubles by bit pattern), as in the golden
// regression test: any numeric drift anywhere in the pipeline changes it.
std::uint64_t HashAudit(const telemetry::Telemetry& telemetry) {
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
  return h.hash();
}

struct RunFingerprint {
  bool detected = false;
  Tick delay = -1;
  int false_positive_intervals = -1;
  std::uint64_t audit_records = 0;
  std::uint64_t audit_hash = 0;

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint RunCell(const std::string& app, AttackKind attack, Scheme scheme,
                   std::uint64_t seed, bool attribution) {
  telemetry::Telemetry telemetry;
  telemetry.tracer().DisableAllLayers();
  DetectionRunConfig cfg;
  cfg.app = app;
  cfg.attack = attack;
  cfg.scheme = scheme;
  cfg.profile_ticks = 2000;
  cfg.clean_ticks = 2000;
  cfg.attack_ticks = 3000;
  cfg.scenario.machine.telemetry = &telemetry;
  cfg.scenario.machine.attribution = attribution;
  const DetectionRunResult r = RunDetectionRun(cfg, seed);
  RunFingerprint f;
  f.detected = r.detected;
  f.delay = r.detection_delay_ticks.value_or(-1);
  f.false_positive_intervals = r.false_positive_intervals;
  f.audit_records = telemetry.audit().size();
  f.audit_hash = HashAudit(telemetry);
  return f;
}

TEST(AttributionTransparencyTest, SdsBusLockRunIsBitIdentical) {
  EXPECT_EQ(RunCell("kmeans", AttackKind::kBusLock, Scheme::kSds, 42, false),
            RunCell("kmeans", AttackKind::kBusLock, Scheme::kSds, 42, true));
}

TEST(AttributionTransparencyTest, SdsCleansingRunIsBitIdentical) {
  EXPECT_EQ(
      RunCell("terasort", AttackKind::kLlcCleansing, Scheme::kSds, 11, false),
      RunCell("terasort", AttackKind::kLlcCleansing, Scheme::kSds, 11, true));
}

TEST(AttributionTransparencyTest, KstestRunIsBitIdentical) {
  EXPECT_EQ(RunCell("bayes", AttackKind::kBusLock, Scheme::kKsTest, 7, false),
            RunCell("bayes", AttackKind::kBusLock, Scheme::kKsTest, 7, true));
}

}  // namespace
}  // namespace sds::eval
