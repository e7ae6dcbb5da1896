// The ingest admission ladder (DESIGN.md §14): fixed rung ORDER — quarantine
// beats insane beats future beats stale beats backpressure — plus the
// backpressure tiers (admit / coalesce / shed by queue depth) and the
// offense -> quarantine machinery for repeat poison-input offenders.
#include "svc/admission.h"

#include <gtest/gtest.h>

#include "svc/tenant_table.h"

namespace sds::svc {
namespace {

PipelineConfig SmallPipeline() {
  PipelineConfig c;
  c.det.window = 20;
  c.det.step = 5;
  c.profile_len = 30;
  return c;
}

AdmissionConfig TestConfig() {
  AdmissionConfig c;
  c.max_future_ticks = 50;
  c.quarantine_offense_threshold = 3;
  c.quarantine_ticks = 100;
  c.coalesce_depth = 4;
  c.shed_depth = 8;
  return c;
}

SvcSample Sane(Tick tick) {
  SvcSample s;
  s.tenant = 1;
  s.tick = tick;
  s.access_num = 2000;
  s.miss_num = 500;
  return s;
}

SvcSample Insane(Tick tick) {
  SvcSample s = Sane(tick);
  s.miss_num = s.access_num + 1;  // misses exceed accesses: impossible
  return s;
}

TEST(AdmissionTest, CleanSampleIsAdmitted) {
  EXPECT_EQ(JudgeSample(Sane(10), TestConfig(), 10, nullptr, 0, false),
            Disposition::kAdmit);
}

TEST(AdmissionTest, QuarantineOutranksEveryLaterRung) {
  TenantEntry entry(SmallPipeline());
  entry.quarantined_until = 100;
  // Even an insane sample from a quarantined tenant is classified by the
  // EARLIER rung — the ladder order is fixed.
  EXPECT_EQ(JudgeSample(Insane(10), TestConfig(), 10, &entry, 0, false),
            Disposition::kRejectQuarantined);
  // Sentence served: the same insane sample now reaches the sanity rung.
  EXPECT_EQ(JudgeSample(Insane(100), TestConfig(), 100, &entry, 0, false),
            Disposition::kRejectInsane);
}

TEST(AdmissionTest, InsaneCountersAreRejected) {
  const AdmissionConfig config = TestConfig();
  EXPECT_EQ(JudgeSample(Insane(10), config, 10, nullptr, 0, false),
            Disposition::kRejectInsane);

  // Delta ceiling: one tick of data may not move the counter more than
  // kMaxSampleDeltaPerTick...
  SvcSample burst = Sane(10);
  burst.access_num = detect::kMaxSampleDeltaPerTick + 1;
  burst.miss_num = 0;
  EXPECT_EQ(JudgeSample(burst, config, 10, nullptr, 0, false),
            Disposition::kRejectInsane);

  // ...but the allowance scales with the tick gap since the tenant's newest
  // enqueued sample (same scaling detect/degrade applies after gaps).
  TenantEntry entry(SmallPipeline());
  entry.last_enqueued_tick = 0;
  SvcSample gap = burst;
  gap.tick = 10;
  EXPECT_EQ(JudgeSample(gap, config, 10, &entry, 0, false),
            Disposition::kAdmit);
}

TEST(AdmissionTest, FutureTimestampsAreRejectedBeyondSkew) {
  const AdmissionConfig config = TestConfig();
  // Exactly at the tolerated skew: fine.
  EXPECT_EQ(JudgeSample(Sane(10 + config.max_future_ticks), config, 10,
                        nullptr, 0, false),
            Disposition::kAdmit);
  EXPECT_EQ(JudgeSample(Sane(10 + config.max_future_ticks + 1), config, 10,
                        nullptr, 0, false),
            Disposition::kRejectFuture);
}

TEST(AdmissionTest, StaleAndDuplicateTicksAreRejected) {
  TenantEntry entry(SmallPipeline());
  entry.last_enqueued_tick = 20;
  // Duplicate (== watermark) and out-of-order (< watermark) are stale...
  EXPECT_EQ(JudgeSample(Sane(20), TestConfig(), 25, &entry, 0, false),
            Disposition::kRejectStale);
  EXPECT_EQ(JudgeSample(Sane(15), TestConfig(), 25, &entry, 0, false),
            Disposition::kRejectStale);
  // ...progress is not.
  EXPECT_EQ(JudgeSample(Sane(21), TestConfig(), 25, &entry, 0, false),
            Disposition::kAdmit);
}

TEST(AdmissionTest, BackpressureTiersByQueueDepth) {
  const AdmissionConfig config = TestConfig();
  // Below coalesce depth: admit.
  EXPECT_EQ(JudgeSample(Sane(10), config, 10, nullptr,
                        config.coalesce_depth - 1, true),
            Disposition::kAdmit);
  // Deep queue + an entry to merge into: coalesce.
  EXPECT_EQ(JudgeSample(Sane(10), config, 10, nullptr, config.coalesce_depth,
                        true),
            Disposition::kCoalesce);
  // Deep queue but nothing of this tenant to merge into: still admit — the
  // coalesce tier never drops a tenant's FIRST queued sample.
  EXPECT_EQ(JudgeSample(Sane(10), config, 10, nullptr, config.coalesce_depth,
                        false),
            Disposition::kAdmit);
  // At shed depth the sample is dropped regardless of mergeability.
  EXPECT_EQ(JudgeSample(Sane(10), config, 10, nullptr, config.shed_depth,
                        true),
            Disposition::kShed);
}

TEST(AdmissionTest, OnlyInsaneAndFutureAreOffenses) {
  EXPECT_TRUE(DispositionIsOffense(Disposition::kRejectInsane));
  EXPECT_TRUE(DispositionIsOffense(Disposition::kRejectFuture));
  EXPECT_FALSE(DispositionIsOffense(Disposition::kRejectStale));
  EXPECT_FALSE(DispositionIsOffense(Disposition::kRejectMalformed));
  EXPECT_FALSE(DispositionIsOffense(Disposition::kRejectQuarantined));
  EXPECT_FALSE(DispositionIsOffense(Disposition::kShed));
  EXPECT_FALSE(DispositionIsOffense(Disposition::kCoalesce));
  EXPECT_FALSE(DispositionIsOffense(Disposition::kAdmit));
}

TEST(AdmissionTest, RepeatOffenderIsQuarantined) {
  const AdmissionConfig config = TestConfig();
  TenantEntry entry(SmallPipeline());

  EXPECT_FALSE(RecordOffense(entry, config, 10));
  EXPECT_FALSE(RecordOffense(entry, config, 11));
  EXPECT_EQ(entry.offenses, 2u);
  EXPECT_EQ(entry.quarantined_until, kInvalidTick);

  // Third strike: quarantine starts, counter resets for the next cycle.
  EXPECT_TRUE(RecordOffense(entry, config, 12));
  EXPECT_EQ(entry.offenses, 0u);
  EXPECT_EQ(entry.quarantined_until, 12 + config.quarantine_ticks);

  EXPECT_EQ(JudgeSample(Sane(13), config, 13, &entry, 0, false),
            Disposition::kRejectQuarantined);
}

TEST(AdmissionTest, DispositionNamesAreStable) {
  // Inspection tooling keys on these strings; renames are format breaks.
  EXPECT_STREQ(DispositionName(Disposition::kAdmit), "admit");
  EXPECT_STREQ(DispositionName(Disposition::kCoalesce), "coalesce");
  EXPECT_STREQ(DispositionName(Disposition::kShed), "shed");
  EXPECT_STREQ(DispositionName(Disposition::kRejectMalformed),
               "reject_malformed");
  EXPECT_STREQ(DispositionName(Disposition::kRejectInsane), "reject_insane");
  EXPECT_STREQ(DispositionName(Disposition::kRejectFuture), "reject_future");
  EXPECT_STREQ(DispositionName(Disposition::kRejectStale), "reject_stale");
  EXPECT_STREQ(DispositionName(Disposition::kRejectQuarantined),
               "reject_quarantined");
}

}  // namespace
}  // namespace sds::svc
