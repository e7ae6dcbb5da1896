// Thread-stress companion to aggregate_test.cpp, sized for the TSan CI job:
// every test drives the parallel aggregation path with >= 8 workers so the
// race detector sees real interleavings (worker count deliberately exceeds
// the iteration count in one case, and contention on shared state is part of
// the workload in another). Under plain builds this doubles as a cheap
// smoke that worker count never changes results.
#include "eval/aggregate.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "eval/report.h"

namespace sds::eval {
namespace {

constexpr int kStressWorkers = 8;

TEST(ParallelForStressTest, ManyWorkersVisitEveryIndexExactlyOnce) {
  constexpr int kIterations = 10000;
  std::vector<std::atomic<int>> visits(kIterations);
  ParallelFor(kIterations, kStressWorkers,
              [&](int i) { ++visits[static_cast<std::size_t>(i)]; });
  for (const auto& v : visits) ASSERT_EQ(v.load(), 1);
}

TEST(ParallelForStressTest, MoreWorkersThanIterations) {
  std::vector<std::atomic<int>> visits(3);
  ParallelFor(3, kStressWorkers * 4,
              [&](int i) { ++visits[static_cast<std::size_t>(i)]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForStressTest, SharedAccumulationUnderContention) {
  constexpr int kIterations = 5000;
  std::atomic<std::int64_t> atomic_sum{0};
  std::int64_t locked_sum = 0;
  std::set<int> locked_seen;
  std::mutex mu;
  ParallelFor(kIterations, kStressWorkers, [&](int i) {
    atomic_sum.fetch_add(i, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mu);
    locked_sum += i;
    locked_seen.insert(i);
  });
  const std::int64_t expected =
      static_cast<std::int64_t>(kIterations) * (kIterations - 1) / 2;
  EXPECT_EQ(atomic_sum.load(), expected);
  EXPECT_EQ(locked_sum, expected);
  EXPECT_EQ(locked_seen.size(), static_cast<std::size_t>(kIterations));
}

// The real threaded hot path: detection runs fan out across workers and
// write disjoint slots of the results vector. 8 workers over 8 seeds gives
// TSan one thread per run; results must be identical to the single-threaded
// aggregation (the determinism contract shrunk to a unit test).
TEST(AggregateStressTest, EightWorkerDetectionMatchesSerial) {
  DetectionRunConfig cfg;
  cfg.app = "bayes";
  cfg.attack = AttackKind::kBusLock;
  cfg.scheme = Scheme::kSds;
  cfg.profile_ticks = 6000;
  cfg.clean_ticks = 5000;
  cfg.attack_ticks = 8000;
  constexpr int kRuns = 8;
  const auto parallel =
      AggregateDetection({cfg}, kRuns, 10, kStressWorkers).at(0);
  const auto serial = AggregateDetection({cfg}, kRuns, 10, 1).at(0);
  EXPECT_EQ(parallel.runs, kRuns);
  EXPECT_EQ(parallel.detected_runs, serial.detected_runs);
  EXPECT_DOUBLE_EQ(parallel.recall.median, serial.recall.median);
  EXPECT_DOUBLE_EQ(parallel.specificity.median, serial.specificity.median);
  EXPECT_DOUBLE_EQ(parallel.delay_seconds.median, serial.delay_seconds.median);
  EXPECT_DOUBLE_EQ(parallel.delay_seconds.p90, serial.delay_seconds.p90);
}

TEST(AggregateStressTest, EightWorkerOverheadMatchesSerial) {
  OverheadRunConfig cfg;
  cfg.app = "bayes";
  cfg.work_target_units = 500;
  const auto parallel =
      AggregateOverhead(cfg, {Scheme::kNone}, 8, 5, kStressWorkers).at(0);
  const auto serial = AggregateOverhead(cfg, {Scheme::kNone}, 8, 5, 1).at(0);
  EXPECT_DOUBLE_EQ(parallel.normalized_time.median,
                   serial.normalized_time.median);
  EXPECT_DOUBLE_EQ(parallel.normalized_time.p10, serial.normalized_time.p10);
  EXPECT_DOUBLE_EQ(parallel.normalized_time.p90, serial.normalized_time.p90);
}

// Bit-for-bit comparison: the determinism contract allows no rounding slack.
void ExpectSameSummary(const PercentileSummary& a, const PercentileSummary& b) {
  EXPECT_EQ(a.p10, b.p10);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.p90, b.p90);
}

void ExpectSameDetection(const AggregatedDetection& a,
                         const AggregatedDetection& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.detected_runs, b.detected_runs);
  ExpectSameSummary(a.recall, b.recall);
  ExpectSameSummary(a.specificity, b.specificity);
  ExpectSameSummary(a.delay_seconds, b.delay_seconds);
}

// Three short cells that differ in app, attack, scheme and DetectorParams, so
// a cell or seed mix-up in the flattened cells x runs index changes a value.
std::vector<DetectionRunConfig> HeterogeneousCells() {
  std::vector<DetectionRunConfig> cells(3);
  cells[0].app = "bayes";
  cells[0].scheme = Scheme::kSds;
  cells[0].params.window = 100;
  cells[0].params.step = 20;
  cells[1].app = "pca";
  cells[1].scheme = Scheme::kSdsB;
  cells[1].params.alpha = 0.4;
  cells[2].app = "kmeans";
  cells[2].attack = AttackKind::kLlcCleansing;
  cells[2].scheme = Scheme::kKsTest;
  for (auto& cell : cells) {
    cell.profile_ticks = 4000;
    cell.clean_ticks = 3000;
    cell.attack_ticks = 4000;
  }
  return cells;
}

TEST(AggregateStressTest, DetectionGridIsThreadCountInvariant) {
  const auto cells = HeterogeneousCells();
  constexpr int kRuns = 2;
  const auto serial = AggregateDetection(cells, kRuns, 30, 1);
  ASSERT_EQ(serial.size(), cells.size());
  for (int threads : {4, kStressWorkers}) {
    SCOPED_TRACE(threads);
    const auto parallel = AggregateDetection(cells, kRuns, 30, threads);
    ASSERT_EQ(parallel.size(), cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      ExpectSameDetection(parallel[c], serial[c]);
    }
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    SCOPED_TRACE(c);
    const auto alone = AggregateDetection({cells[c]}, kRuns, 30, kRuns);
    ASSERT_EQ(alone.size(), 1u);
    ExpectSameDetection(alone[0], serial[c]);
  }
}

TEST(AggregateStressTest, OverheadGridIsThreadCountInvariant) {
  OverheadRunConfig cfg;
  cfg.app = "bayes";
  cfg.work_target_units = 300;
  const std::vector<Scheme> schemes = {Scheme::kSds, Scheme::kKsTest};
  constexpr int kRuns = 3;
  const auto serial = AggregateOverhead(cfg, schemes, kRuns, 7, 1);
  ASSERT_EQ(serial.size(), schemes.size());
  for (int threads : {4, kStressWorkers}) {
    SCOPED_TRACE(threads);
    const auto parallel = AggregateOverhead(cfg, schemes, kRuns, 7, threads);
    ASSERT_EQ(parallel.size(), schemes.size());
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      EXPECT_EQ(parallel[s].runs, kRuns);
      ExpectSameSummary(parallel[s].normalized_time,
                        serial[s].normalized_time);
    }
  }
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    SCOPED_TRACE(s);
    const auto alone = AggregateOverhead(cfg, {schemes[s]}, kRuns, 7, 4);
    ASSERT_EQ(alone.size(), 1u);
    ExpectSameSummary(alone[0].normalized_time, serial[s].normalized_time);
  }
  const auto none = AggregateOverhead(cfg, {Scheme::kNone}, kRuns, 7, 4);
  ASSERT_EQ(none.size(), 1u);
  EXPECT_EQ(none[0].normalized_time.p10, 1.0);
  EXPECT_EQ(none[0].normalized_time.median, 1.0);
  EXPECT_EQ(none[0].normalized_time.p90, 1.0);
}

}  // namespace
}  // namespace sds::eval
