// Seeded mutation sweep over every durable byte stream and every line
// parser that reads outside input — fuzzing without a fuzzing engine, so
// it runs in tier-1 and under the ASan/UBSan preset. Three mutations:
// truncation at every byte, multi-bit flips at distinct positions, and
// splices of one stream's prefix onto another's suffix. Targets and the
// assertion each must hold:
//   * WAL logs: a scan returns only records that were written — exactly the
//     frames before the first changed byte — then a typed stop;
//   * sealed service checkpoints and detector handoffs: every changed blob
//     is refused with a typed rung and restores nothing;
//   * the field stream inside a validly sealed envelope: the restoring
//     caller accepts it or reports kCorrupt, without a crash;
//   * svc::ParseSampleLine and ParseJsonLine: return without a crash.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "detect/profile.h"
#include "detect/sds_detector.h"
#include "eval/experiment.h"
#include "eval/scenario.h"
#include "obs/handoff.h"
#include "svc/sample.h"
#include "svc/service.h"
#include "svc/store.h"
#include "svc/wal.h"

namespace sds {
namespace {

constexpr std::uint64_t kSeed = 0x5eed2609;
constexpr int kFlipRounds = 1000;
constexpr int kSpliceRounds = 1000;

// Flips 1-4 random bits in each of 1-4 distinct bytes, so the result always
// differs from the input. *first receives the lowest changed offset.
std::string FlipBits(std::string bytes, Rng& rng, std::size_t* first) {
  const std::uint64_t count = 1 + rng.UniformInt(std::uint64_t{4});
  std::set<std::size_t> positions;
  while (positions.size() < count && positions.size() < bytes.size()) {
    positions.insert(rng.UniformInt(std::uint64_t{bytes.size()}));
  }
  for (std::size_t pos : positions) {
    unsigned mask = 0;
    while (mask == 0) {
      for (int bit = 0; bit < 8; ++bit) {
        if (rng.UniformInt(std::uint64_t{4}) == 0) mask |= 1u << bit;
      }
    }
    bytes[pos] = static_cast<char>(static_cast<unsigned char>(bytes[pos]) ^
                                   mask);
  }
  *first = *positions.begin();
  return bytes;
}

// A random prefix of `a` followed by a random suffix of `b`.
std::string Splice(std::string_view a, std::string_view b, Rng& rng,
                   std::size_t* cut) {
  *cut = rng.UniformInt(std::uint64_t{a.size() + 1});
  const std::size_t from = rng.UniformInt(std::uint64_t{b.size() + 1});
  return std::string(a.substr(0, *cut)) + std::string(b.substr(from));
}

// ---------------------------------------------------------------------------
// WAL logs

struct WalLog {
  std::string bytes;
  std::vector<svc::WalRecord> records;
  std::vector<std::size_t> ends;  // end offset of each frame
};

WalLog BuildWal(std::uint64_t first_lsn, std::uint64_t salt) {
  WalLog log;
  for (std::uint64_t i = 0; i < 24; ++i) {
    svc::WalRecord r;
    r.lsn = first_lsn + i;
    if (i % 4 == 3) {
      r.kind = svc::WalRecordKind::kTick;
      r.tick = static_cast<Tick>(salt + i);
    } else {
      r.kind = svc::WalRecordKind::kEvent;
      r.sample.tenant = static_cast<svc::TenantId>(i % 3);
      r.sample.tick = static_cast<Tick>(salt + i);
      r.sample.access_num = 2000 + salt * i;
      r.sample.miss_num = 500 + i;
      r.sample.offset = salt + i;
      r.disposition = static_cast<std::uint32_t>(i % 5);
    }
    log.bytes += svc::WalWriter::EncodeFrame(r);
    log.records.push_back(r);
    log.ends.push_back(log.bytes.size());
  }
  return log;
}

bool SameRecord(const svc::WalRecord& a, const svc::WalRecord& b) {
  return a.kind == b.kind && a.lsn == b.lsn && a.tick == b.tick &&
         a.disposition == b.disposition && a.sample.tenant == b.sample.tenant &&
         a.sample.tick == b.sample.tick &&
         a.sample.access_num == b.sample.access_num &&
         a.sample.miss_num == b.sample.miss_num &&
         a.sample.offset == b.sample.offset;
}

// Frames wholly before `offset`.
std::size_t FramesBefore(const WalLog& log, std::size_t offset) {
  std::size_t k = 0;
  while (k < log.ends.size() && log.ends[k] <= offset) ++k;
  return k;
}

// The scan returned exactly the first `k` written records and stopped at
// the end of the last of them.
void ExpectPrefix(const svc::WalScanResult& scan, const WalLog& log,
                  std::size_t k) {
  ASSERT_EQ(scan.records.size(), k);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_TRUE(SameRecord(scan.records[i], log.records[i])) << i;
  }
  EXPECT_EQ(scan.valid_bytes, k == 0 ? 0 : log.ends[k - 1]);
}

TEST(CodecMutationSweep, WalScansKeepOnlyWrittenRecords) {
  const WalLog log = BuildWal(1, 7);
  const WalLog other = BuildWal(100, 31);
  Rng rng(kSeed);

  for (std::size_t cut = 0; cut < log.bytes.size(); ++cut) {
    const svc::WalScanResult scan =
        svc::WalReader::Scan(std::string_view(log.bytes).substr(0, cut));
    const std::size_t k = FramesBefore(log, cut);
    ExpectPrefix(scan, log, k);
    const bool boundary = cut == (k == 0 ? 0 : log.ends[k - 1]);
    EXPECT_EQ(scan.stop, boundary ? SnapshotStatus::kOk
                                  : SnapshotStatus::kBadLength)
        << "cut=" << cut;
  }

  for (int round = 0; round < kFlipRounds; ++round) {
    std::size_t first = 0;
    const std::string mutated = FlipBits(log.bytes, rng, &first);
    const svc::WalScanResult scan = svc::WalReader::Scan(mutated);
    ExpectPrefix(scan, log, FramesBefore(log, first));
    EXPECT_NE(scan.stop, SnapshotStatus::kOk) << "round=" << round;
  }

  for (int round = 0; round < kSpliceRounds; ++round) {
    std::size_t cut = 0;
    const std::string mutated = Splice(log.bytes, other.bytes, rng, &cut);
    const svc::WalScanResult scan = svc::WalReader::Scan(mutated);
    // The intact frames before the cut come back in order; anything after
    // is a frame of either log that the splice happened to leave whole.
    const std::size_t k = FramesBefore(log, cut);
    ASSERT_GE(scan.records.size(), k);
    EXPECT_LE(scan.valid_bytes, mutated.size());
    for (std::size_t i = 0; i < scan.records.size(); ++i) {
      bool written = i < k && SameRecord(scan.records[i], log.records[i]);
      for (const WalLog* source : {&log, &other}) {
        for (const svc::WalRecord& r : source->records) {
          written = written || (i >= k && SameRecord(scan.records[i], r));
        }
      }
      EXPECT_TRUE(written) << "round=" << round << " record=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Service checkpoints

svc::SvcConfig SmallConfig() {
  svc::SvcConfig c;
  c.pipeline.det.window = 20;
  c.pipeline.det.step = 5;
  c.pipeline.det.h_c = 3;
  c.pipeline.det.boundary_k = 25.0;
  c.pipeline.profile_len = 40;
  c.max_tenants = 4;
  return c;
}

// The checkpoint a service writes after `ticks` ticks of a 3-tenant feed.
std::string CheckpointAfter(Tick ticks) {
  svc::MemStore store;
  svc::DetectionService service(SmallConfig(), &store);
  std::uint64_t offset = 1;
  for (Tick t = 0; t < ticks; ++t) {
    EXPECT_TRUE(service.AdvanceTick(t));
    for (svc::TenantId u = 0; u < 3; ++u) {
      svc::SvcSample s;
      s.tenant = u;
      s.tick = t;
      s.access_num =
          2200 + static_cast<std::uint64_t>(600 * Draw01(9, u, t, 1));
      s.miss_num = s.access_num / 4;
      s.offset = offset++;
      EXPECT_TRUE(service.Offer(s));
    }
  }
  EXPECT_TRUE(service.Checkpoint());
  return store.ReadCheckpoint();
}

// Recovers a fresh service from a store holding only `blob`.
SnapshotStatus RecoverFrom(std::string_view blob, bool* from_checkpoint) {
  svc::MemStore store;
  EXPECT_TRUE(store.WriteCheckpoint(blob));
  svc::DetectionService service(SmallConfig(), &store);
  service.Recover();
  *from_checkpoint = service.incarnation().recovered_from_checkpoint;
  return service.incarnation().checkpoint_status;
}

// A changed blob must be refused: a typed rung other than kOk, nothing
// restored.
void ExpectCheckpointRefused(std::string_view blob, const std::string& what) {
  bool from_checkpoint = true;
  EXPECT_NE(RecoverFrom(blob, &from_checkpoint), SnapshotStatus::kOk) << what;
  EXPECT_FALSE(from_checkpoint) << what;
}

TEST(CodecMutationSweep, CheckpointsRefuseEveryChange) {
  const std::string ckpt = CheckpointAfter(80);
  const std::string later = CheckpointAfter(95);
  ASSERT_NE(ckpt, later);
  bool from_checkpoint = false;
  ASSERT_EQ(RecoverFrom(ckpt, &from_checkpoint), SnapshotStatus::kOk);
  ASSERT_TRUE(from_checkpoint);
  Rng rng(kSeed + 1);

  for (std::size_t cut = 1; cut < ckpt.size(); ++cut) {
    ExpectCheckpointRefused(ckpt.substr(0, cut), "cut=" + std::to_string(cut));
  }
  for (int round = 0; round < kFlipRounds; ++round) {
    std::size_t first = 0;
    ExpectCheckpointRefused(FlipBits(ckpt, rng, &first),
                            "flip round=" + std::to_string(round));
  }
  for (int round = 0; round < kSpliceRounds; ++round) {
    std::size_t cut = 0;
    const std::string mutated = Splice(ckpt, later, rng, &cut);
    if (mutated == ckpt || mutated == later) continue;
    ExpectCheckpointRefused(mutated, "splice round=" + std::to_string(round));
  }

  // The field stream behind a valid seal: restored or kCorrupt, no crash.
  std::string_view payload;
  ASSERT_EQ(OpenSnapshot(ckpt, "svc_checkpoint", SmallConfig().Fingerprint(),
                         &payload),
            SnapshotStatus::kOk);
  const std::string fields(payload);
  for (int round = 0; round < kFlipRounds; ++round) {
    std::size_t first = 0;
    const std::string resealed =
        SealSnapshot("svc_checkpoint", SmallConfig().Fingerprint(),
                     round % 2 == 0
                         ? FlipBits(fields, rng, &first)
                         : fields.substr(0, 1 + rng.UniformInt(std::uint64_t{
                                                    fields.size() - 1})));
    const SnapshotStatus status = RecoverFrom(resealed, &from_checkpoint);
    EXPECT_TRUE(status == SnapshotStatus::kOk ||
                status == SnapshotStatus::kCorrupt)
        << SnapshotStatusName(status);
  }
}

// ---------------------------------------------------------------------------
// Detector handoffs

TEST(CodecMutationSweep, HandoffsRefuseEveryChange) {
  detect::DetectorParams params;
  params.window = 100;
  params.step = 25;
  params.h_c = 8;
  eval::ScenarioConfig base;
  base.app = "kmeans";
  const detect::SdsProfile profile = detect::BuildSdsProfile(
      eval::CollectCleanSamples(base, 1500, 77), params);
  eval::ScenarioConfig cfg;
  cfg.app = "kmeans";
  cfg.attack = eval::AttackKind::kBusLock;
  cfg.attack_start = 200;
  cfg.seed = 77;
  eval::Scenario scenario = eval::BuildScenario(cfg);
  const auto make_detector = [&] {
    return std::make_unique<detect::SdsDetector>(
        *scenario.hypervisor, scenario.victim, profile, params,
        detect::SdsMode::kCombined);
  };
  auto source = make_detector();
  for (Tick t = 0; t < 400; ++t) {
    scenario.hypervisor->RunTick();
    source->OnTick();
  }
  const std::string blob = obs::PackSdsHandoff(*source, 400);
  const std::string early = obs::PackSdsHandoff(*make_detector(), 0);
  auto destination = make_detector();
  Rng rng(kSeed + 2);

  const auto expect_refused = [&](std::string_view mutated,
                                  const std::string& what) {
    const obs::HandoffResult r = obs::ApplySdsHandoff(mutated,
                                                      destination.get());
    EXPECT_FALSE(r.warm) << what;
    EXPECT_NE(r.status, SnapshotStatus::kOk) << what;
    EXPECT_NE(r.status, SnapshotStatus::kCorrupt) << what;
  };
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    expect_refused(std::string_view(blob).substr(0, cut),
                   "cut=" + std::to_string(cut));
  }
  for (int round = 0; round < kFlipRounds; ++round) {
    std::size_t first = 0;
    expect_refused(FlipBits(blob, rng, &first),
                   "flip round=" + std::to_string(round));
  }
  for (int round = 0; round < kSpliceRounds; ++round) {
    std::size_t cut = 0;
    const std::string mutated = Splice(blob, early, rng, &cut);
    if (mutated == blob || mutated == early) continue;
    expect_refused(mutated, "splice round=" + std::to_string(round));
  }
  // No refused blob touched the destination: still cold.
  EXPECT_EQ(destination->alarm_events(), 0u);
  EXPECT_FALSE(destination->attack_active());

  // The field stream behind a valid seal: restored or kCorrupt, no crash.
  std::string_view payload;
  ASSERT_EQ(OpenSnapshot(blob, obs::kSdsHandoffKind,
                         source->ConfigFingerprint(), &payload),
            SnapshotStatus::kOk);
  const std::string fields(payload);
  for (int round = 0; round < kFlipRounds; ++round) {
    std::size_t first = 0;
    const std::string mutated =
        round % 2 == 0
            ? FlipBits(fields, rng, &first)
            : fields.substr(0, 1 + rng.UniformInt(
                                       std::uint64_t{fields.size() - 1}));
    auto fresh = make_detector();
    const obs::HandoffResult r = obs::ApplySdsHandoff(
        SealSnapshot(obs::kSdsHandoffKind, source->ConfigFingerprint(),
                     mutated),
        fresh.get());
    EXPECT_TRUE(r.status == SnapshotStatus::kOk ||
                r.status == SnapshotStatus::kCorrupt)
        << SnapshotStatusName(r.status);
  }
}

// ---------------------------------------------------------------------------
// Line parsers

// Every mutation of every line: truncations, flips, and splices with the
// next line. `parse` must simply return.
template <typename Parse>
void SweepLines(const std::vector<std::string>& lines, Rng& rng, Parse parse) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::string& next = lines[(i + 1) % lines.size()];
    for (std::size_t cut = 0; cut < line.size(); ++cut) {
      parse(line.substr(0, cut));
    }
    for (int round = 0; round < kFlipRounds; ++round) {
      std::size_t first = 0;
      parse(FlipBits(line, rng, &first));
      std::size_t cut = 0;
      parse(Splice(line, next, rng, &cut));
    }
  }
}

TEST(CodecMutationSweep, SampleLineParserSurvivesMutations) {
  std::vector<std::string> lines;
  for (svc::TenantId u = 0; u < 3; ++u) {
    svc::SvcSample s;
    s.tenant = u;
    s.tick = 1000 + u;
    s.access_num = 123456789ull * (u + 1);
    s.miss_num = 4321;
    lines.push_back(svc::FormatSampleLine(s));
    ASSERT_TRUE(svc::ParseSampleLine(lines.back()).has_value());
  }
  Rng rng(kSeed + 3);
  // Some mutations still parse (a flipped digit, a splice on a field
  // boundary); whatever parses must format back to a line that parses to
  // the same sample.
  SweepLines(lines, rng, [](const std::string& mutated) {
    const auto sample = svc::ParseSampleLine(mutated);
    if (!sample) return;
    const auto again = svc::ParseSampleLine(svc::FormatSampleLine(*sample));
    ASSERT_TRUE(again.has_value()) << mutated;
    EXPECT_EQ(again->tenant, sample->tenant);
    EXPECT_EQ(again->tick, sample->tick);
    EXPECT_EQ(again->access_num, sample->access_num);
    EXPECT_EQ(again->miss_num, sample->miss_num);
  });
}

TEST(CodecMutationSweep, JsonLineParserSurvivesMutations) {
  const std::vector<std::string> lines = {
      R"({"type":"event","tick":5750,"layer":"detect",)"
      R"("event":"alarm_raised","value":-1.5e3,"ok":true})",
      R"({"type":"lint_stats","schema_version":1,)"
      R"("rule_hits":{"layer-dag":4,"det-rand":0},"files":[1,2,3]})",
      R"({"type":"forensic_report",)"
      R"("suspects":[{"vm":2,"score":0.592},{"vm":3,"score":0.1}]})",
  };
  for (const std::string& line : lines) {
    JsonObject o;
    ASSERT_TRUE(ParseJsonLine(line, o)) << line;
  }
  Rng rng(kSeed + 4);
  int parsed = 0;
  SweepLines(lines, rng, [&parsed](const std::string& mutated) {
    JsonObject o;
    if (!ParseJsonLine(mutated, o)) return;
    ++parsed;
    // Read nested values the way tools/inspect does.
    JsonObject hits;
    ParseJsonLine(StrOr(o, "rule_hits", "{}"), hits);
    ParseObjectArray(StrOr(o, "suspects", "[]"));
    NumOr(o, "tick", 0.0);
  });
  // Flips inside string values leave the line well-formed.
  EXPECT_GT(parsed, 0);
}

}  // namespace
}  // namespace sds
