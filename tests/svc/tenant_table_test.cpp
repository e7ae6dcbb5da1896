// Bounded-memory tenant table (DESIGN.md §14): LRU eviction with loud
// accounting — created / evictions / readmissions counters, lossy-by-design
// eviction (a returning tenant re-profiles from scratch), deterministic
// recency order, and the checkpoint round trip that keeps all of it across
// a service restart.
#include "svc/tenant_table.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/snapshot.h"
#include "pcm/pcm_sampler.h"

namespace sds::svc {
namespace {

PipelineConfig SmallPipeline() {
  PipelineConfig c;
  c.det.window = 20;
  c.det.step = 5;
  c.det.h_c = 3;
  c.profile_len = 30;
  return c;
}

// Feeds `n` admitted samples into the tenant's pipeline so its state is
// distinguishable from a fresh one.
void WarmEntry(TenantEntry& entry, int n) {
  for (int i = 0; i < n; ++i) {
    pcm::PcmSample s;
    s.tick = i;
    s.access_num = 1000 + static_cast<std::uint64_t>(i);
    s.miss_num = 200;
    entry.pipeline.OnSample(s);
  }
}

TEST(TenantTableTest, TouchCreatesOnceAndCounts) {
  TenantTable table(SmallPipeline(), 4);
  table.Touch(7);
  table.Touch(8);
  table.Touch(7);  // existing: promoted, not re-created
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.stats().created, 2u);
  EXPECT_EQ(table.stats().evictions, 0u);
  EXPECT_EQ(table.stats().readmissions, 0u);
  EXPECT_NE(table.Find(7), nullptr);
  EXPECT_EQ(table.Find(99), nullptr);
}

TEST(TenantTableTest, EvictsLeastRecentlyTouched) {
  TenantTable table(SmallPipeline(), 3);
  table.Touch(1);
  table.Touch(2);
  table.Touch(3);
  table.Touch(1);  // promote 1; LRU is now 2
  table.Touch(4);  // over capacity: 2 is evicted

  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.Find(2), nullptr);
  EXPECT_NE(table.Find(1), nullptr);
  EXPECT_EQ(table.stats().evictions, 1u);
  EXPECT_EQ(table.RecencyOrder(), (std::vector<TenantId>{4, 1, 3}));
}

TEST(TenantTableTest, ReadmissionIsCountedAndStartsFresh) {
  TenantTable table(SmallPipeline(), 2);
  TenantEntry& victim = table.Touch(10);
  WarmEntry(victim, 12);
  victim.offenses = 2;
  victim.last_enqueued_tick = 11;
  ASSERT_EQ(victim.pipeline.samples_seen(), 12u);

  table.Touch(11);
  table.Touch(12);  // evicts 10 (the LRU)
  ASSERT_EQ(table.Find(10), nullptr);
  EXPECT_EQ(table.stats().evictions, 1u);

  // Tenant 10 returns: a READMISSION, rebuilt from scratch — warm-up trace,
  // offense record and stale watermark are gone (lossy by design, loudly
  // counted).
  TenantEntry& back = table.Touch(10);  // evicts 11 (at capacity)
  EXPECT_EQ(table.stats().readmissions, 1u);
  EXPECT_EQ(table.stats().evictions, 2u);
  EXPECT_EQ(back.pipeline.samples_seen(), 0u);
  EXPECT_EQ(back.offenses, 0u);
  EXPECT_EQ(back.last_enqueued_tick, kInvalidTick);

  // Another eviction + return of tenant 10 counts again; the returning
  // tenant 11 is itself a readmission by now.
  table.Touch(11);  // evicts 12; 11 returns (readmission 2)
  table.Touch(12);  // evicts 10; 12 returns (readmission 3)
  table.Touch(10);  // evicts 11; 10 returns (readmission 4)
  EXPECT_EQ(table.stats().evictions, 5u);
  EXPECT_EQ(table.stats().readmissions, 4u);
}

TEST(TenantTableTest, FindNeverPromotes) {
  TenantTable table(SmallPipeline(), 2);
  table.Touch(1);
  table.Touch(2);
  // Find/FindMutable must not disturb recency: 1 stays the LRU victim.
  EXPECT_NE(table.Find(1), nullptr);
  EXPECT_NE(table.FindMutable(1), nullptr);
  table.Touch(3);
  EXPECT_EQ(table.Find(1), nullptr);
  EXPECT_NE(table.Find(2), nullptr);
}

TEST(TenantTableTest, SaveRestoreRoundTrip) {
  TenantTable table(SmallPipeline(), 3);
  table.Touch(1);
  table.Touch(2);
  table.Touch(3);
  table.Touch(4);  // evicts 1
  TenantEntry& t2 = table.Touch(2);
  t2.offenses = 2;
  t2.quarantined_until = 500;
  t2.last_enqueued_tick = 42;
  WarmEntry(t2, 7);

  SnapshotWriter w;
  table.SaveState(w);

  TenantTable restored(SmallPipeline(), 3);
  SnapshotReader r(w.data());
  ASSERT_TRUE(restored.RestoreState(r));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());

  EXPECT_EQ(restored.size(), table.size());
  EXPECT_EQ(restored.RecencyOrder(), table.RecencyOrder());
  EXPECT_EQ(restored.stats().created, table.stats().created);
  EXPECT_EQ(restored.stats().evictions, table.stats().evictions);
  EXPECT_EQ(restored.stats().readmissions, table.stats().readmissions);

  const TenantEntry* back = restored.Find(2);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->offenses, 2u);
  EXPECT_EQ(back->quarantined_until, 500);
  EXPECT_EQ(back->last_enqueued_tick, 42);
  EXPECT_EQ(back->pipeline.samples_seen(), 7u);

  // The evicted-ever set survived: tenant 1 returning is a readmission in
  // the restored table exactly as it would have been in the original.
  restored.Touch(5);  // evicts 3 in both worlds... exercise eviction parity
  table.Touch(5);
  EXPECT_EQ(restored.RecencyOrder(), table.RecencyOrder());
  restored.Touch(1);
  table.Touch(1);
  EXPECT_EQ(restored.stats().readmissions, table.stats().readmissions);
  EXPECT_GE(restored.stats().readmissions, 1u);
}

TEST(TenantTableTest, RestoreRejectsOverCapacityAndGarbage) {
  TenantTable table(SmallPipeline(), 4);
  table.Touch(1);
  table.Touch(2);
  SnapshotWriter w;
  table.SaveState(w);

  // A checkpoint holding more tenants than this table's capacity is refused
  // (config mismatch), as is a truncated field stream.
  TenantTable tiny(SmallPipeline(), 1);
  SnapshotReader r(w.data());
  EXPECT_FALSE(tiny.RestoreState(r));

  TenantTable fresh(SmallPipeline(), 4);
  SnapshotReader truncated(
      std::string_view(w.data()).substr(0, w.data().size() / 2));
  EXPECT_FALSE(fresh.RestoreState(truncated));

  // A corrupt evicted-tenant count with nothing behind it fails at the
  // first missing field instead of looping over the count.
  SnapshotWriter huge;
  huge.U64(0);           // no resident tenants
  huge.U64(1ull << 62);  // evicted-tenant count
  TenantTable spin(SmallPipeline(), 4);
  SnapshotReader huge_reader(huge.data());
  EXPECT_FALSE(spin.RestoreState(huge_reader));
}

}  // namespace
}  // namespace sds::svc
