// DetectionService crash consistency (DESIGN.md §14): WAL-before-apply,
// checkpoint + replay recovery, transport-offset redelivery dedupe,
// idempotent tick advances — and the torn-write sweep: a crash torn at
// EVERY byte offset of a mid-stream WAL append must recover to a decision
// log, alarm sequence and accounting bit-identical to a never-crashed run.
#include "svc/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/service_plan.h"
#include "svc/store.h"
#include "svc/wal.h"

namespace sds::svc {
namespace {

SvcConfig TestConfig() {
  SvcConfig c;
  c.pipeline.det.window = 20;
  c.pipeline.det.step = 5;
  c.pipeline.det.h_c = 3;
  // Wide band: the attack below shifts the mean by hundreds of profile
  // sigmas, so detection is unaffected while clean noise never alarms.
  c.pipeline.det.boundary_k = 25.0;
  c.pipeline.profile_len = 40;
  c.admission.max_future_ticks = 50;
  c.admission.coalesce_depth = 12;
  c.admission.shed_depth = 24;
  c.max_tenants = 4;
  c.drain_per_tick = 8;
  c.checkpoint_every_ticks = 25;
  return c;
}

// One sample per tenant per tick; tenant 0 shifts its statistics hard at
// `attack_start` (the service-level attack signal).
std::vector<SvcSample> BuildFeed(std::uint32_t tenants, Tick ticks,
                                 Tick attack_start, std::uint64_t seed) {
  std::vector<SvcSample> feed;
  std::uint64_t offset = 1;
  for (Tick t = 0; t < ticks; ++t) {
    for (std::uint32_t u = 0; u < tenants; ++u) {
      double a = 2200.0 + 600.0 * Draw01(seed, u, t, 1);
      if (u == 0 && t >= attack_start) a += 50000.0;
      SvcSample s;
      s.tenant = u;
      s.tick = t;
      s.access_num = static_cast<std::uint64_t>(a);
      s.miss_num = static_cast<std::uint64_t>(a * 0.25);
      s.offset = offset++;
      feed.push_back(s);
    }
  }
  return feed;
}

// Drives the whole feed (advancing data time from the samples' ticks) and
// quiesces. Safe to re-run on a recovered service: processed offsets and
// ticks deduplicate. Returns false when the service died mid-drive.
bool DriveFeed(DetectionService& service, const std::vector<SvcSample>& feed,
               Tick feed_ticks) {
  for (const SvcSample& s : feed) {
    if (!service.AdvanceTick(s.tick)) return false;
    if (!service.Offer(s)) return false;
  }
  Tick t = feed_ticks;
  while (service.queue_depth() > 0) {
    if (!service.AdvanceTick(t++)) return false;
  }
  return true;
}

TEST(ServiceTest, ColdStartDetectsTheAttackedTenantOnly) {
  const auto feed = BuildFeed(3, 250, 150, 7);
  MemStore store;
  DetectionService service(TestConfig(), &store);
  EXPECT_FALSE(service.Recover());  // nothing durable yet: cold start
  ASSERT_TRUE(DriveFeed(service, feed, 250));

  ASSERT_EQ(service.alarm_log().size(), 1u);
  EXPECT_EQ(service.alarm_log()[0].tenant, 0u);
  EXPECT_GE(service.alarm_log()[0].tick, 150);
  ASSERT_FALSE(service.decision_log().empty());
  EXPECT_TRUE(service.decision_log()[0].active);

  const SvcAccounting& a = service.accounting();
  EXPECT_EQ(a.offered, feed.size());
  EXPECT_EQ(a.admitted + a.coalesced + a.shed, feed.size());
  EXPECT_EQ(a.samples_drained, a.admitted + a.coalesced);
  EXPECT_EQ(service.transport_watermark(), feed.size());
  EXPECT_GT(service.incarnation().checkpoints_written, 0u);
}

TEST(ServiceTest, RedeliveryDedupesAgainstTheWatermark) {
  const auto feed = BuildFeed(3, 120, 60, 7);
  MemStore store;
  DetectionService service(TestConfig(), &store);
  service.Recover();
  ASSERT_TRUE(DriveFeed(service, feed, 120));

  const SvcAccounting before = service.accounting();
  const auto decisions = service.decision_log();
  const auto alarms = service.alarm_log();

  // The feed replays from the beginning (at-least-once): every event dedupes
  // at the watermark, nothing is re-judged, nothing changes.
  ASSERT_TRUE(DriveFeed(service, feed, 120));
  EXPECT_EQ(service.accounting(), before);
  EXPECT_EQ(service.decision_log(), decisions);
  EXPECT_EQ(service.alarm_log(), alarms);
  EXPECT_EQ(service.incarnation().redelivered_deduped, feed.size());
}

TEST(ServiceTest, TickAdvanceIsIdempotent) {
  MemStore store;
  DetectionService service(TestConfig(), &store);
  service.Recover();
  ASSERT_TRUE(service.AdvanceTick(5));
  const std::uint64_t ticks = service.accounting().ticks_processed;
  // At or behind the clock: accepted (redelivered drive loops hit this on
  // every replayed event) but processed zero times.
  EXPECT_TRUE(service.AdvanceTick(5));
  EXPECT_TRUE(service.AdvanceTick(3));
  EXPECT_EQ(service.accounting().ticks_processed, ticks);
  EXPECT_EQ(service.current_tick(), 5);
}

TEST(ServiceTest, MalformedLinesAreAccountedNotFatal) {
  MemStore store;
  DetectionService service(TestConfig(), &store);
  service.Recover();
  ASSERT_TRUE(service.AdvanceTick(0));
  ASSERT_TRUE(service.OfferMalformed(1));
  ASSERT_TRUE(service.OfferMalformed(2));
  EXPECT_EQ(service.accounting().rejected_malformed, 2u);
  EXPECT_EQ(service.accounting().offered, 2u);
  EXPECT_FALSE(service.dead());
}

TEST(ServiceTest, RepeatInsaneOffenderIsQuarantined) {
  SvcConfig config = TestConfig();
  config.admission.quarantine_offense_threshold = 3;
  config.admission.quarantine_ticks = 100;
  MemStore store;
  DetectionService service(config, &store);
  service.Recover();

  std::uint64_t offset = 1;
  for (Tick t = 0; t < 4; ++t) {
    ASSERT_TRUE(service.AdvanceTick(t));
    SvcSample s;
    s.tenant = 9;
    s.tick = t;
    s.access_num = 1000;
    s.miss_num = 2000;  // impossible: offense
    s.offset = offset++;
    ASSERT_TRUE(service.Offer(s));
  }
  const SvcAccounting& a = service.accounting();
  EXPECT_EQ(a.rejected_insane, 3u);
  EXPECT_EQ(a.quarantines_started, 1u);
  // The fourth sample (sane or not) is serving the sentence.
  EXPECT_EQ(a.rejected_quarantined, 1u);
}

TEST(ServiceTest, CheckpointTruncatesWalAndRestoresState) {
  const auto feed = BuildFeed(3, 120, 60, 7);
  MemStore store;
  DetectionService service(TestConfig(), &store);
  service.Recover();
  ASSERT_TRUE(DriveFeed(service, feed, 120));
  ASSERT_TRUE(service.Checkpoint());
  EXPECT_TRUE(store.ReadWal().empty());

  // A clean restart from the checkpoint alone (no WAL tail, no redelivery)
  // restores the full pinned state.
  MemStore revived_store = store.Reincarnate();
  DetectionService revived(TestConfig(), &revived_store);
  ASSERT_TRUE(revived.Recover());
  EXPECT_TRUE(revived.incarnation().recovered_from_checkpoint);
  EXPECT_EQ(revived.incarnation().recovery_replayed_records, 0u);
  EXPECT_EQ(revived.current_tick(), service.current_tick());
  EXPECT_EQ(revived.transport_watermark(), service.transport_watermark());
  EXPECT_EQ(revived.accounting(), service.accounting());
  EXPECT_EQ(revived.decision_log(), service.decision_log());
  EXPECT_EQ(revived.alarm_log(), service.alarm_log());
}

TEST(ServiceTest, ConfigChangeOrphansDurableState) {
  const auto feed = BuildFeed(3, 80, 40, 7);
  MemStore store;
  {
    DetectionService service(TestConfig(), &store);
    service.Recover();
    ASSERT_TRUE(DriveFeed(service, feed, 80));
    ASSERT_TRUE(service.Checkpoint());
  }
  // A differently-tuned service must refuse the old checkpoint (fingerprint
  // mismatch) and start cold rather than feed stale analyzer windows into
  // new detectors.
  SvcConfig retuned = TestConfig();
  retuned.pipeline.det.boundary_k += 1.0;
  MemStore restarted_store = store.Reincarnate();
  DetectionService restarted(retuned, &restarted_store);
  EXPECT_FALSE(restarted.Recover());
  EXPECT_FALSE(restarted.incarnation().recovered_from_checkpoint);
  EXPECT_EQ(restarted.incarnation().checkpoint_status,
            SnapshotStatus::kBadFingerprint);
  EXPECT_EQ(restarted.accounting().offered, 0u);
}

TEST(ServiceTest, DeadServiceRefusesEveryMutation) {
  fault::ServiceFaultPlan plan =
      fault::ServiceFaultPlan::Single(fault::ServiceFaultKind::kCrashMidWalAppend,
                                      3, 0.5);
  MemStore store(plan);
  DetectionService service(TestConfig(), &store);
  service.Recover();
  const auto feed = BuildFeed(2, 30, 999, 7);
  EXPECT_FALSE(DriveFeed(service, feed, 30));
  EXPECT_TRUE(service.dead());
  EXPECT_FALSE(service.Offer(feed.back()));
  EXPECT_FALSE(service.OfferMalformed(feed.size() + 1));
  EXPECT_FALSE(service.AdvanceTick(1000));
  EXPECT_FALSE(service.Checkpoint());
}

// The headline robustness pin at service level: tear a mid-stream WAL
// append at EVERY byte offset (0 surviving bytes .. the whole frame) and
// the recovered service, re-driven over the same at-least-once feed, must
// match the never-crashed reference bit for bit.
TEST(ServiceTest, TornWalAppendAtEveryByteOffsetRecoversBitIdentical) {
  const SvcConfig config = TestConfig();
  const Tick kTicks = 120;
  const auto feed = BuildFeed(3, kTicks, 60, 7);

  MemStore ref_store;
  DetectionService reference(config, &ref_store);
  reference.Recover();
  ASSERT_TRUE(DriveFeed(reference, feed, kTicks));
  ASSERT_GE(reference.alarm_log().size(), 1u);
  const std::uint64_t ref_appends =
      reference.incarnation().wal_frames_appended;
  ASSERT_GT(ref_appends, 10u);

  // The longest frame either record kind produces bounds the sweep; a
  // byte_offset past the torn frame's actual length clamps to "whole frame
  // persisted, then the process died".
  WalRecord event;
  event.kind = WalRecordKind::kEvent;
  event.sample = feed[0];
  const std::size_t max_frame = WalWriter::EncodeFrame(event).size();

  const std::uint64_t crash_op = (ref_appends * 2) / 3;
  for (std::size_t cut = 0; cut <= max_frame; ++cut) {
    fault::ServiceFaultPlan plan = fault::ServiceFaultPlan::Single(
        fault::ServiceFaultKind::kCrashMidWalAppend, crash_op);
    plan.points[0].byte_offset = static_cast<std::int64_t>(cut);

    MemStore doomed_store(plan);
    DetectionService doomed(config, &doomed_store);
    doomed.Recover();
    EXPECT_FALSE(DriveFeed(doomed, feed, kTicks)) << "cut=" << cut;
    ASSERT_TRUE(doomed_store.crashed()) << "cut=" << cut;

    MemStore recovered_store = doomed_store.Reincarnate();
    DetectionService recovered(config, &recovered_store);
    recovered.Recover();
    ASSERT_TRUE(DriveFeed(recovered, feed, kTicks)) << "cut=" << cut;

    EXPECT_EQ(recovered.decision_log(), reference.decision_log())
        << "cut=" << cut;
    EXPECT_EQ(recovered.alarm_log(), reference.alarm_log()) << "cut=" << cut;
    EXPECT_EQ(recovered.accounting(), reference.accounting())
        << "cut=" << cut;
  }
}

// Same pin for the checkpoint plane: a checkpoint torn mid-write must leave
// the previous good checkpoint in charge, and recovery + redelivery must
// still match the reference.
TEST(ServiceTest, TornCheckpointRecoversFromThePreviousOne) {
  const SvcConfig config = TestConfig();
  const Tick kTicks = 120;
  const auto feed = BuildFeed(3, kTicks, 60, 7);

  MemStore ref_store;
  DetectionService reference(config, &ref_store);
  reference.Recover();
  ASSERT_TRUE(DriveFeed(reference, feed, kTicks));
  const std::uint64_t ref_ckpts =
      reference.incarnation().checkpoints_written;
  ASSERT_GE(ref_ckpts, 3u);

  for (const double fraction : {0.0, 0.3, 0.9}) {
    fault::ServiceFaultPlan plan = fault::ServiceFaultPlan::Single(
        fault::ServiceFaultKind::kCrashMidCheckpoint, ref_ckpts / 2,
        fraction);
    MemStore doomed_store(plan);
    DetectionService doomed(config, &doomed_store);
    doomed.Recover();
    EXPECT_FALSE(DriveFeed(doomed, feed, kTicks));

    MemStore recovered_store = doomed_store.Reincarnate();
    DetectionService recovered(config, &recovered_store);
    recovered.Recover();
    // The torn blob never got promoted: recovery reads the previous good
    // checkpoint (there were >= 2 before the crash ordinal).
    EXPECT_TRUE(recovered.incarnation().recovered_from_checkpoint);
    ASSERT_TRUE(DriveFeed(recovered, feed, kTicks));

    EXPECT_EQ(recovered.decision_log(), reference.decision_log());
    EXPECT_EQ(recovered.alarm_log(), reference.alarm_log());
    EXPECT_EQ(recovered.accounting(), reference.accounting());
  }
}

}  // namespace
}  // namespace sds::svc
