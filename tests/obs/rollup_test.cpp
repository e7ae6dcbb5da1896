// FleetRollup: the sharded-merge determinism pin (bit-identical rollup
// stream at any shard count), window sealing semantics, and the
// fixed-memory ceiling / drop accounting.
#include "obs/rollup.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "telemetry/tracer.h"

namespace sds::obs {
namespace {

// A deterministic sample stream over `hosts x tenants x metrics` series:
// values depend only on (key, tick) so any two generations agree.
std::vector<ObsSample> TestStream(std::uint32_t hosts, std::uint32_t tenants,
                                  std::uint32_t metrics, Tick ticks,
                                  std::uint64_t seed) {
  std::vector<ObsSample> out;
  Rng rng(seed);
  for (Tick t = 0; t < ticks; ++t) {
    for (std::uint32_t h = 0; h < hosts; ++h) {
      for (std::uint32_t ten = 0; ten < tenants; ++ten) {
        for (std::uint32_t m = 0; m < metrics; ++m) {
          ObsSample s;
          s.tick = t;
          s.key = {h, ten, m};
          s.value = 1.0 + rng.UniformDouble() * 1000.0;
          out.push_back(s);
        }
      }
    }
  }
  return out;
}

FleetRollup MakeRollup(std::uint32_t shards, Tick window_ticks = 100,
                       std::size_t max_series = 4096) {
  RollupConfig config;
  config.window_ticks = window_ticks;
  config.shards = shards;
  config.max_series_per_shard = max_series;
  FleetRollup rollup(config);
  rollup.RegisterMetric("m0");
  rollup.RegisterMetric("m1");
  rollup.RegisterMetric("m2");
  return rollup;
}

bool RowsIdentical(const std::vector<RollupRow>& a,
                   const std::vector<RollupRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const RollupRow& x = a[i];
    const RollupRow& y = b[i];
    if (x.window != y.window || x.key != y.key || x.count != y.count ||
        x.sum != y.sum || x.min != y.min || x.max != y.max ||
        x.p50 != y.p50 || x.p95 != y.p95 || x.p99 != y.p99) {
      return false;
    }
  }
  return true;
}

TEST(FleetRollupTest, ShardedMergeBitIdenticalToSingleShard) {
  const auto stream = TestStream(4, 3, 3, 500, 21);
  FleetRollup reference = MakeRollup(1);
  for (const ObsSample& s : stream) reference.Ingest(s);
  reference.BarrierMerge(600);

  for (std::uint32_t shards : {2u, 4u, 8u}) {
    FleetRollup sharded = MakeRollup(shards);
    for (const ObsSample& s : stream) sharded.Ingest(s);
    sharded.BarrierMerge(600);
    EXPECT_TRUE(RowsIdentical(sharded.completed(), reference.completed()))
        << shards << " shards";
    EXPECT_EQ(sharded.ingested(), reference.ingested());
  }
}

TEST(FleetRollupTest, IncrementalBarriersMatchOneFinalBarrier) {
  const auto stream = TestStream(3, 2, 3, 400, 22);
  FleetRollup once = MakeRollup(4);
  for (const ObsSample& s : stream) once.Ingest(s);
  once.BarrierMerge(500);

  FleetRollup incremental = MakeRollup(4);
  Tick prev_tick = -1;
  for (const ObsSample& s : stream) {
    // Barrier between ticks whenever a window boundary was crossed (a
    // barrier must never split one tick's samples: anything still to come
    // for the sealed window would be dropped as late).
    if (s.tick != prev_tick && s.tick % 100 == 0 && s.tick > 0) {
      incremental.BarrierMerge(s.tick);
    }
    prev_tick = s.tick;
    incremental.Ingest(s);
  }
  incremental.BarrierMerge(500);
  EXPECT_TRUE(RowsIdentical(incremental.completed(), once.completed()));
}

TEST(FleetRollupTest, BarrierSealsOnlyCompletedWindows) {
  FleetRollup rollup = MakeRollup(2, 100);
  ObsSample s;
  s.key = {0, 0, 0};
  s.tick = 50;
  s.value = 1.0;
  rollup.Ingest(s);
  s.tick = 150;
  s.value = 2.0;
  rollup.Ingest(s);

  // Barrier at tick 100: only window 0 is complete.
  EXPECT_EQ(rollup.BarrierMerge(100), 1u);
  ASSERT_EQ(rollup.completed().size(), 1u);
  EXPECT_EQ(rollup.completed()[0].window, 0);
  EXPECT_EQ(rollup.completed()[0].count, 1u);
  EXPECT_EQ(rollup.completed()[0].sum, 1.0);

  // The live window seals at the next barrier.
  EXPECT_EQ(rollup.BarrierMerge(200), 1u);
  ASSERT_EQ(rollup.completed().size(), 2u);
  EXPECT_EQ(rollup.completed()[1].window, 1);
  EXPECT_EQ(rollup.completed()[1].sum, 2.0);
}

TEST(FleetRollupTest, RollOverBeforeBarrierLosesNothing) {
  // A series rolls from window 0 to window 2 with no intervening barrier:
  // both completed windows must still surface at the next barrier.
  FleetRollup rollup = MakeRollup(1, 100);
  ObsSample s;
  s.key = {1, 1, 1};
  s.tick = 10;
  s.value = 1.0;
  rollup.Ingest(s);
  s.tick = 110;
  s.value = 2.0;
  rollup.Ingest(s);
  s.tick = 210;
  s.value = 3.0;
  rollup.Ingest(s);

  EXPECT_EQ(rollup.BarrierMerge(300), 3u);
  ASSERT_EQ(rollup.completed().size(), 3u);
  EXPECT_EQ(rollup.completed()[0].sum, 1.0);
  EXPECT_EQ(rollup.completed()[1].sum, 2.0);
  EXPECT_EQ(rollup.completed()[2].sum, 3.0);
  EXPECT_EQ(rollup.dropped_late(), 0u);
  EXPECT_EQ(rollup.dropped_samples(), 0u);
}

TEST(FleetRollupTest, LateSamplesAreDroppedAndCounted) {
  FleetRollup rollup = MakeRollup(1, 100);
  ObsSample s;
  s.key = {0, 0, 0};
  s.tick = 250;
  s.value = 1.0;
  rollup.Ingest(s);
  rollup.BarrierMerge(300);  // windows < 3 sealed

  s.tick = 150;  // window 1: already merged
  rollup.Ingest(s);
  EXPECT_EQ(rollup.dropped_late(), 1u);
  // The late sample must not resurrect a sealed window.
  EXPECT_EQ(rollup.BarrierMerge(400), 0u);
}

TEST(FleetRollupTest, SeriesCeilingDropsNewKeysLoudly) {
  FleetRollup rollup = MakeRollup(1, 100, /*max_series=*/2);
  ObsSample s;
  s.tick = 0;
  s.value = 1.0;
  s.key = {0, 0, 0};
  rollup.Ingest(s);
  s.key = {0, 0, 1};
  rollup.Ingest(s);
  s.key = {0, 0, 2};  // third series: over the ceiling
  rollup.Ingest(s);
  rollup.Ingest(s);

  EXPECT_EQ(rollup.live_series(), 2u);
  EXPECT_EQ(rollup.dropped_series(), 1u);
  EXPECT_EQ(rollup.dropped_samples(), 2u);
  // Admitted series are unaffected.
  EXPECT_EQ(rollup.BarrierMerge(100), 2u);
}

TEST(FleetRollupTest, MemoryCeilingScalesWithLiveSeriesOnly) {
  FleetRollup rollup = MakeRollup(1, 100);
  ObsSample s;
  s.key = {0, 0, 0};
  s.value = 1.0;
  rollup.Ingest(s);
  const std::size_t one_series = rollup.ApproxMemoryBytes();

  // 10x the samples into the same series: no growth.
  for (int i = 0; i < 10; ++i) {
    s.tick = i;
    rollup.Ingest(s);
  }
  EXPECT_EQ(rollup.ApproxMemoryBytes(), one_series);

  // A second series doubles the live-state footprint.
  s.key = {0, 0, 1};
  rollup.Ingest(s);
  EXPECT_GE(rollup.ApproxMemoryBytes(), 2 * one_series);
}

TEST(FleetRollupTest, RegisterMetricIsIdempotent) {
  FleetRollup rollup = MakeRollup(1);
  EXPECT_EQ(rollup.RegisterMetric("m1"), 1u);
  EXPECT_EQ(rollup.RegisterMetric("fresh"), 3u);
  EXPECT_EQ(rollup.RegisterMetric("fresh"), 3u);
  EXPECT_EQ(rollup.metric_names().size(), 4u);
}

TEST(FleetRollupTest, WriteJsonlEmitsRowsAndStats) {
  FleetRollup rollup = MakeRollup(2, 100);
  ObsSample s;
  s.key = {3, 4, 0};
  s.tick = 10;
  s.value = 7.5;
  rollup.Ingest(s);
  rollup.BarrierMerge(200);

  std::ostringstream os;
  rollup.WriteJsonl(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"type\":\"rollup\""), std::string::npos);
  EXPECT_NE(text.find("\"metric\":\"m0\""), std::string::npos);
  EXPECT_NE(text.find("\"host\":3"), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"rollup_stats\""), std::string::npos);
  EXPECT_NE(text.find("\"ingested\":1"), std::string::npos);
}

}  // namespace
}  // namespace sds::obs
