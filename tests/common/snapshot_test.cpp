// The envelope's rejection ladder (DESIGN.md §13): magic -> length ->
// checksum -> version -> kind -> fingerprint -> payload. The field stream
// and frame rungs a restoring caller adds are pinned in tests/obs/
// handoff_test and tests/svc/wal_test.
#include "common/snapshot.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

namespace sds {
namespace {

TEST(SnapshotEnvelopeTest, SealOpenRoundTrip) {
  const std::string blob = SealSnapshot("kind", 42, "payload-bytes");
  std::string_view payload;
  EXPECT_EQ(OpenSnapshot(blob, "kind", 42, &payload), SnapshotStatus::kOk);
  EXPECT_EQ(payload, "payload-bytes");
}

TEST(SnapshotEnvelopeTest, RejectsNonSnapshots) {
  std::string_view payload;
  EXPECT_EQ(OpenSnapshot("", "k", 0, &payload), SnapshotStatus::kBadMagic);
  EXPECT_EQ(OpenSnapshot("not a snapshot at all", "k", 0, &payload),
            SnapshotStatus::kBadMagic);
  // Magic alone is a frame header cut short: a length fault, not a crash.
  EXPECT_EQ(OpenSnapshot(std::string("SDSSNAP\0", 8), "k", 0, &payload),
            SnapshotStatus::kBadLength);
}

TEST(SnapshotEnvelopeTest, RejectsOtherVersions) {
  SnapshotWriter fields;
  fields.Str("kind");
  fields.U64(0);
  fields.U64(1);  // one payload field

  // A blob sealed by a future release: same envelope shape, bumped version.
  const std::string future = std::string("SDSSNAP\0", 8) +
                             SealFrame(fields.data(), kFormatVersion + 1);
  std::string_view payload;
  EXPECT_EQ(OpenSnapshot(future, "kind", 0, &payload),
            SnapshotStatus::kBadVersion);

  // A blob in the version-2 layout (magic | U32 2 | kind | fingerprint |
  // fnv | length | payload) is refused with a typed rung, never misparsed:
  // its tagged version field reads as a body length no blob this short
  // holds.
  SnapshotWriter v2;
  v2.U32(2);
  v2.Str("kind");
  v2.U64(0);
  v2.U64(Fnv1a("payload"));
  v2.U64(7);
  const std::string old =
      std::string("SDSSNAP\0", 8) + v2.data() + std::string("payload");
  EXPECT_EQ(OpenSnapshot(old, "kind", 0, &payload),
            SnapshotStatus::kBadLength);
}

TEST(SnapshotEnvelopeTest, RejectsWrongKindAndFingerprint) {
  const std::string blob = SealSnapshot("sds_detector", 42, "p");
  std::string_view payload;
  EXPECT_EQ(OpenSnapshot(blob, "kstest_detector", 42, &payload),
            SnapshotStatus::kBadKind);
  EXPECT_EQ(OpenSnapshot(blob, "sds_detector", 43, &payload),
            SnapshotStatus::kBadFingerprint);
}

TEST(SnapshotEnvelopeTest, RejectsCorruptedPayload) {
  std::string blob = SealSnapshot("kind", 7, "sensitive-payload");
  blob.back() ^= 0x01;  // flip one payload bit
  std::string_view payload;
  EXPECT_EQ(OpenSnapshot(blob, "kind", 7, &payload),
            SnapshotStatus::kBadChecksum);

  // The checksum covers the header fields too: a flipped fingerprint byte
  // is caught before the fingerprint is ever compared. Magic 8 + frame
  // header 12 + version field 9 + kind field 9 + 4 puts the fingerprint
  // field's tag at offset 42.
  std::string header = SealSnapshot("kind", 7, "sensitive-payload");
  header[43] ^= 0x01;
  EXPECT_EQ(OpenSnapshot(header, "kind", 7, &payload),
            SnapshotStatus::kBadChecksum);
  // And so does the version field.
  std::string version = SealSnapshot("kind", 7, "sensitive-payload");
  version[21] ^= 0x01;
  EXPECT_EQ(OpenSnapshot(version, "kind", 7, &payload),
            SnapshotStatus::kBadChecksum);
}

TEST(SnapshotEnvelopeTest, RejectsBadPayloadLengths) {
  std::string_view payload;

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

}  // namespace
}  // namespace sds
