// Detector snapshot/restore (DESIGN.md §13): the envelope validation ladder
// (magic -> version -> kind -> fingerprint -> checksum -> field stream) and
// the round-trip pin — a detector restored mid-run into the same
// still-running world reproduces the un-restarted run's alarm sequence
// bit-identically.
#include "obs/snapshot.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/snapshot.h"
#include "detect/sds_detector.h"
#include "eval/experiment.h"
#include "eval/scenario.h"
#include "obs/handoff.h"

namespace sds::obs {
namespace {

using detect::DetectorParams;
using detect::SdsDetector;
using detect::SdsMode;
using detect::SdsProfile;

// ---------------------------------------------------------------------------
// Envelope layer
// ---------------------------------------------------------------------------

TEST(SnapshotEnvelopeTest, SealOpenRoundTrip) {
  const std::string blob = SealSnapshot("kind", 42, "payload-bytes");
  std::string payload;
  EXPECT_EQ(OpenSnapshot(blob, "kind", 42, &payload), SnapshotStatus::kOk);
  EXPECT_EQ(payload, "payload-bytes");
}

TEST(SnapshotEnvelopeTest, RejectsNonSnapshots) {
  std::string payload;
  EXPECT_EQ(OpenSnapshot("", "k", 0, &payload), SnapshotStatus::kBadMagic);
  EXPECT_EQ(OpenSnapshot("not a snapshot at all", "k", 0, &payload),
            SnapshotStatus::kBadMagic);
  // Magic alone with a truncated header is still bad magic, not a crash.
  EXPECT_EQ(OpenSnapshot(std::string("SDSSNAP\0", 8), "k", 0, &payload),
            SnapshotStatus::kBadMagic);
}

TEST(SnapshotEnvelopeTest, RejectsOtherVersions) {
  // A blob sealed by a future release: same envelope shape, bumped version.
  std::string blob(std::string("SDSSNAP\0", 8));
  SnapshotWriter header;
  header.U32(kSnapshotVersion + 1);
  header.Str("kind");
  header.U64(0);
  header.U64(Fnv1a(""));
  header.U64(0);
  blob += header.data();
  std::string payload;
  EXPECT_EQ(OpenSnapshot(blob, "kind", 0, &payload),
            SnapshotStatus::kBadVersion);
}

TEST(SnapshotEnvelopeTest, RejectsWrongKindAndFingerprint) {
  const std::string blob = SealSnapshot("sds_detector", 42, "p");
  std::string payload;
  EXPECT_EQ(OpenSnapshot(blob, "kstest_detector", 42, &payload),
            SnapshotStatus::kBadKind);
  EXPECT_EQ(OpenSnapshot(blob, "sds_detector", 43, &payload),
            SnapshotStatus::kBadFingerprint);
}

TEST(SnapshotEnvelopeTest, RejectsCorruptedPayload) {
  std::string blob = SealSnapshot("kind", 7, "sensitive-payload");
  blob.back() ^= 0x01;  // flip one payload bit
  std::string payload;
  EXPECT_EQ(OpenSnapshot(blob, "kind", 7, &payload),
            SnapshotStatus::kBadChecksum);
}

TEST(SnapshotEnvelopeTest, RejectsBadPayloadLengths) {
  std::string payload;

  // A zero-length payload cannot be a field stream: rejected even though
  // its declared length and checksum are self-consistent.
  EXPECT_EQ(OpenSnapshot(SealSnapshot("kind", 7, ""), "kind", 7, &payload),
            SnapshotStatus::kBadLength);

  // Over-declared: the blob lost payload bytes (torn write). The length
  // mismatch is reported — BEFORE any checksum math, so a forged length can
  // never choose which bytes get summed.
  std::string torn = SealSnapshot("kind", 7, "sensitive-payload");
  torn.resize(torn.size() - 3);
  EXPECT_EQ(OpenSnapshot(torn, "kind", 7, &payload),
            SnapshotStatus::kBadLength);

  // Under-declared: trailing bytes after the declared payload are not
  // silently ignored (they would escape the checksum entirely).
  std::string padded = SealSnapshot("kind", 7, "sensitive-payload");
  padded += "extra";
  EXPECT_EQ(OpenSnapshot(padded, "kind", 7, &payload),
            SnapshotStatus::kBadLength);

  // The ladder order is fixed: a blob that is BOTH torn and bit-flipped
  // reports the length rung, not the checksum rung.
  std::string both = SealSnapshot("kind", 7, "sensitive-payload");
  both.back() ^= 0x01;
  both.resize(both.size() - 2);
  EXPECT_EQ(OpenSnapshot(both, "kind", 7, &payload),
            SnapshotStatus::kBadLength);
}

// ---------------------------------------------------------------------------
// SdsDetector round trip
// ---------------------------------------------------------------------------

struct SdsRig {
  eval::Scenario scenario;
  SdsProfile profile;
  DetectorParams params;

  SdsRig(const std::string& app, eval::AttackKind attack, Tick attack_start,
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

  std::unique_ptr<SdsDetector> MakeDetector() {
    return std::make_unique<SdsDetector>(*scenario.hypervisor,
                                         scenario.victim, profile, params,
                                         SdsMode::kCombined);
  }
};

// Runs `ticks` ticks, appending attack_active() after each to `trace`.
template <typename Detector>
void RunTrace(eval::Scenario& scenario, Detector& detector, Tick ticks,
              std::vector<bool>* trace) {
  for (Tick t = 0; t < ticks; ++t) {
    scenario.hypervisor->RunTick();
    detector.OnTick();
    trace->push_back(detector.attack_active());
  }
}

TEST(SdsSnapshotTest, RoundTripReproducesAlarmSequence) {
  constexpr Tick kTotal = 8000;
  constexpr Tick kRestart = 3000;  // mid-run, after the attack started

  // Reference: one detector runs the whole scenario.
  SdsRig ref_rig("bayes", eval::AttackKind::kBusLock, 2000, 31);
  auto reference = ref_rig.MakeDetector();
  std::vector<bool> ref_trace;
  RunTrace(ref_rig.scenario, *reference, kTotal, &ref_trace);
  ASSERT_GE(reference->alarm_events(), 1u);  // scenario actually alarms

  // Restarted: identical scenario; snapshot at the boundary, destroy the
  // detector (a monitoring-service crash), restore into a fresh one.
  SdsRig rig("bayes", eval::AttackKind::kBusLock, 2000, 31);
  auto first = rig.MakeDetector();
  std::vector<bool> trace;
  RunTrace(rig.scenario, *first, kRestart, &trace);
  const std::string blob = SnapshotSdsDetector(*first);
  first.reset();

  auto second = rig.MakeDetector();
  ASSERT_EQ(RestoreSdsDetector(blob, second.get()), SnapshotStatus::kOk);
  RunTrace(rig.scenario, *second, kTotal - kRestart, &trace);

  EXPECT_EQ(trace, ref_trace);
  EXPECT_EQ(second->alarm_events(), reference->alarm_events());
  EXPECT_EQ(second->last_alarm_trigger_tick(),
            reference->last_alarm_trigger_tick());
  EXPECT_EQ(second->retraction_events(), reference->retraction_events());
}

TEST(SdsSnapshotTest, RefusesDifferentConfiguration) {
  SdsRig rig("bayes", eval::AttackKind::kNone, 0, 32);
  auto det = rig.MakeDetector();
  const std::string blob = SnapshotSdsDetector(*det);

  // Same scenario, different detector parameters -> different fingerprint.
  SdsRig other("bayes", eval::AttackKind::kNone, 0, 32);
  other.params.boundary_k += 1.0;
  auto mismatched = other.MakeDetector();
  EXPECT_EQ(RestoreSdsDetector(blob, mismatched.get()),
            SnapshotStatus::kBadFingerprint);

  // A blob of another kind (a handoff envelope of the same detector) is
  // refused by kind.
  EXPECT_EQ(RestoreSdsDetector(PackSdsHandoff(*det, 0), det.get()),
            SnapshotStatus::kBadKind);
}

TEST(SdsSnapshotTest, CorruptFieldStreamIsRejected) {
  SdsRig rig("bayes", eval::AttackKind::kNone, 0, 33);
  auto det = rig.MakeDetector();

  // A well-formed envelope (right kind, fingerprint, checksum) around a
  // payload that is not an SdsDetector field stream.
  SnapshotWriter bogus;
  bogus.U32(1);
  const std::string blob =
      SealSnapshot("sds_detector", det->ConfigFingerprint(), bogus.data());
  EXPECT_EQ(RestoreSdsDetector(blob, det.get()), SnapshotStatus::kCorrupt);
}

}  // namespace
}  // namespace sds::obs
