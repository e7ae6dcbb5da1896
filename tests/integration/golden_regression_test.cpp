// Golden regression: pins the exact detection behavior of fixed-seed runs.
//
// The robustness work routes every detector through the SampleSource seam
// (pcm/sample_source.h) with fault injection and degradation policies
// layered on top. This test proves the seam is bit-transparent: with no
// injector (or a disabled fault plan), alarm ticks, accuracy counters and
// the full audit stream are IDENTICAL to the pre-seam pipeline. The
// constants below were captured from the pre-refactor tree; any drift in
// them is a behavior change in the default (fault-free) pipeline and must
// be justified, not re-golded casually.
#include <cstdint>

#include <gtest/gtest.h>

#include "common/snapshot.h"
#include "eval/experiment.h"
#include "telemetry/telemetry.h"

namespace sds::eval {
namespace {

struct GoldenSummary {
  bool detected = false;
  Tick delay = -1;
  int false_positive_intervals = -1;
  int true_negative_intervals = -1;
  std::uint64_t audit_records = 0;
  std::uint64_t audit_hash = 0;
};

GoldenSummary RunGolden(const std::string& app, AttackKind attack,
                        Scheme scheme, std::uint64_t seed) {
  telemetry::Telemetry telemetry;
  // Only the audit stream matters here; silence the event layers so the run
  // stays fast and the ring never influences anything.
  telemetry.tracer().DisableAllLayers();

  DetectionRunConfig cfg;
  cfg.app = app;
  cfg.attack = attack;
  cfg.scheme = scheme;
  cfg.profile_ticks = 4000;
  cfg.clean_ticks = 5000;
  cfg.attack_ticks = 5000;
  cfg.scenario.machine.telemetry = &telemetry;
  const DetectionRunResult r = RunDetectionRun(cfg, seed);

  GoldenSummary g;
  g.detected = r.detected;
  g.delay = r.detection_delay_ticks.value_or(-1);
  g.false_positive_intervals = r.false_positive_intervals;
  g.true_negative_intervals = r.true_negative_intervals;
  g.audit_records = telemetry.audit().size();
  // Every audit record's fields in append order, doubles by bit pattern:
  // any numeric drift anywhere in the pipeline changes the hash.
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
  return g;
}

void ExpectGolden(const GoldenSummary& got, const GoldenSummary& want) {
  EXPECT_EQ(got.detected, want.detected);
  EXPECT_EQ(got.delay, want.delay);
  EXPECT_EQ(got.false_positive_intervals, want.false_positive_intervals);
  EXPECT_EQ(got.true_negative_intervals, want.true_negative_intervals);
  EXPECT_EQ(got.audit_records, want.audit_records);
  EXPECT_EQ(got.audit_hash, want.audit_hash);
}

TEST(GoldenRegressionTest, SdsKmeansBusLockSeed42) {
  GoldenSummary want;
  want.detected = true;
  want.delay = 1600;
  want.false_positive_intervals = 0;
  want.true_negative_intervals = 5;
  want.audit_records = 394;
  want.audit_hash = 5766787669683299636ull;
  ExpectGolden(RunGolden("kmeans", AttackKind::kBusLock, Scheme::kSds, 42),
               want);
}

TEST(GoldenRegressionTest, KstestBayesBusLockSeed7) {
  GoldenSummary want;
  want.detected = true;
  want.delay = 2348;
  want.false_positive_intervals = 0;
  want.true_negative_intervals = 5;
  want.audit_records = 54;
  want.audit_hash = 5377181542286461155ull;
  ExpectGolden(RunGolden("bayes", AttackKind::kBusLock, Scheme::kKsTest, 7),
               want);
}

TEST(GoldenRegressionTest, SdsTerasortCleansingSeed11) {
  GoldenSummary want;
  want.detected = true;
  want.delay = 4150;
  want.false_positive_intervals = 0;
  want.true_negative_intervals = 5;
  want.audit_records = 394;
  want.audit_hash = 9692680438302368560ull;
  ExpectGolden(
      RunGolden("terasort", AttackKind::kLlcCleansing, Scheme::kSds, 11),
      want);
}

}  // namespace
}  // namespace sds::eval
