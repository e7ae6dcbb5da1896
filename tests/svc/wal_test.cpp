// WAL framing and torn-tail recovery (DESIGN.md §14): encode/scan round
// trips, and — the crash-consistency workhorse — a scan truncated at EVERY
// byte offset of the final frame must keep exactly the intact prefix and
// report a torn tail, never misparse or crash. The checksum, version and
// field-stream rungs of the scan's rejection ladder are each pinned.
#include "svc/wal.h"

#include <gtest/gtest.h>

#include <string>

#include "common/snapshot.h"

namespace sds::svc {
namespace {

SvcSample MakeSample(TenantId tenant, Tick tick, std::uint64_t offset) {
  SvcSample s;
  s.tenant = tenant;
  s.tick = tick;
  s.access_num = 2000 + offset;
  s.miss_num = 500 + offset;
  s.offset = offset;
  return s;
}

WalRecord EventRecord(std::uint64_t lsn, const SvcSample& sample,
                      std::uint32_t disposition) {
  WalRecord r;
  r.kind = WalRecordKind::kEvent;
  r.lsn = lsn;
  r.sample = sample;
  r.disposition = disposition;
  return r;
}

WalRecord TickRecord(std::uint64_t lsn, Tick tick) {
  WalRecord r;
  r.kind = WalRecordKind::kTick;
  r.lsn = lsn;
  r.tick = tick;
  return r;
}

TEST(WalTest, EventAndTickRoundTrip) {
  const SvcSample sample = MakeSample(3, 77, 41);
  const std::string log = WalWriter::EncodeFrame(EventRecord(9, sample, 2)) +
                          WalWriter::EncodeFrame(TickRecord(10, 78));

  // Frame lengths are part of the recovery accounting (wal_valid_bytes):
  // header 12 + nine tagged fields of 9 bytes, and 12 + four.
  EXPECT_EQ(log.size(), 93u + 48u);

  const WalScanResult r = WalReader::Scan(log);
  EXPECT_EQ(r.stop, SnapshotStatus::kOk);
  EXPECT_EQ(r.valid_bytes, log.size());
  ASSERT_EQ(r.records.size(), 2u);

  EXPECT_EQ(r.records[0].kind, WalRecordKind::kEvent);
  EXPECT_EQ(r.records[0].lsn, 9u);
  EXPECT_EQ(r.records[0].sample.tenant, sample.tenant);
  EXPECT_EQ(r.records[0].sample.tick, sample.tick);
  EXPECT_EQ(r.records[0].sample.access_num, sample.access_num);
  EXPECT_EQ(r.records[0].sample.miss_num, sample.miss_num);
  EXPECT_EQ(r.records[0].sample.offset, sample.offset);
  EXPECT_EQ(r.records[0].disposition, 2u);

  EXPECT_EQ(r.records[1].kind, WalRecordKind::kTick);
  EXPECT_EQ(r.records[1].lsn, 10u);
  EXPECT_EQ(r.records[1].tick, 78);
}

TEST(WalTest, EmptyLogIsCleanEnd) {
  const WalScanResult r = WalReader::Scan("");
  EXPECT_EQ(r.stop, SnapshotStatus::kOk);
  EXPECT_EQ(r.valid_bytes, 0u);
  EXPECT_TRUE(r.records.empty());
}

// The crash-recovery workhorse: a write torn at ANY byte of the final frame
// (header or payload, including zero surviving bytes) leaves a log whose
// scan yields exactly the intact prefix.
TEST(WalTest, TornFinalFrameAtEveryByteOffset) {
  const std::string prefix =
      WalWriter::EncodeFrame(EventRecord(1, MakeSample(0, 5, 1), 0)) +
      WalWriter::EncodeFrame(TickRecord(2, 6));
  const std::string final_frame =
      WalWriter::EncodeFrame(EventRecord(3, MakeSample(1, 6, 2), 0));

  for (std::size_t cut = 0; cut < final_frame.size(); ++cut) {
    const std::string log = prefix + final_frame.substr(0, cut);
    const WalScanResult r = WalReader::Scan(log);
    ASSERT_EQ(r.records.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(r.valid_bytes, prefix.size()) << "cut=" << cut;
    EXPECT_EQ(r.stop,
              cut == 0 ? SnapshotStatus::kOk : SnapshotStatus::kBadLength)
        << "cut=" << cut;
  }

  // And the whole frame present again scans clean.
  const WalScanResult whole = WalReader::Scan(prefix + final_frame);
  EXPECT_EQ(whole.records.size(), 3u);
  EXPECT_EQ(whole.stop, SnapshotStatus::kOk);
  EXPECT_EQ(whole.valid_bytes, prefix.size() + final_frame.size());
}

TEST(WalTest, CorruptPayloadByteStopsWithBadChecksum) {
  const std::string first =
      WalWriter::EncodeFrame(TickRecord(1, 10));
  std::string second =
      WalWriter::EncodeFrame(EventRecord(2, MakeSample(4, 11, 9), 1));
  second[second.size() - 3] ^= 0x20;  // flip a payload bit

  const WalScanResult r = WalReader::Scan(first + second);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].lsn, 1u);
  EXPECT_EQ(r.valid_bytes, first.size());
  EXPECT_EQ(r.stop, SnapshotStatus::kBadChecksum);
}

TEST(WalTest, OtherReleaseVersionStopsWithBadVersion) {
  // A well-checksummed frame whose body was sealed by a "future" release.
  SnapshotWriter fields;
  fields.U32(static_cast<std::uint32_t>(WalRecordKind::kTick));
  fields.U64(1);
  fields.I64(5);

  const WalScanResult r =
      WalReader::Scan(SealFrame(fields.data(), kFormatVersion + 1));
  EXPECT_TRUE(r.records.empty());
  EXPECT_EQ(r.valid_bytes, 0u);
  EXPECT_EQ(r.stop, SnapshotStatus::kBadVersion);
}

TEST(WalTest, MalformedFieldStreamStopsWithBadRecord) {
  // Unknown record kind, good checksum.
  SnapshotWriter unknown_kind;
  unknown_kind.U32(99);
  unknown_kind.U64(1);
  const WalScanResult a = WalReader::Scan(SealFrame(unknown_kind.data()));
  EXPECT_TRUE(a.records.empty());
  EXPECT_EQ(a.stop, SnapshotStatus::kCorrupt);

  // Known kind, field stream cut short (no tick field), good checksum.
  SnapshotWriter short_stream;
  short_stream.U32(static_cast<std::uint32_t>(WalRecordKind::kTick));
  short_stream.U64(1);
  const WalScanResult b = WalReader::Scan(SealFrame(short_stream.data()));
  EXPECT_TRUE(b.records.empty());
  EXPECT_EQ(b.stop, SnapshotStatus::kCorrupt);

  // Known kind with TRAILING bytes after the last field: also corrupt.
  SnapshotWriter trailing;
  trailing.U32(static_cast<std::uint32_t>(WalRecordKind::kTick));
  trailing.U64(1);
  trailing.I64(5);
  trailing.U64(0xdead);
  const WalScanResult c = WalReader::Scan(SealFrame(trailing.data()));
  EXPECT_TRUE(c.records.empty());
  EXPECT_EQ(c.stop, SnapshotStatus::kCorrupt);
}

}  // namespace
}  // namespace sds::svc
