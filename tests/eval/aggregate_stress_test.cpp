// Thread-stress companion to aggregate_test.cpp, sized for the TSan CI job:
// every test drives the parallel aggregation path with >= 8 workers so the
// race detector sees real interleavings (worker count deliberately exceeds
// the iteration count in one case, and contention on shared state is part of
// the workload in another). Under plain builds this doubles as a cheap
// smoke that worker count never changes results.
#include "eval/aggregate.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/actuation.h"
#include "eval/attribution_sweep.h"
#include "eval/hostchaos.h"
#include "eval/report.h"
#include "eval/robustness.h"

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

ActuationRunConfig ShortActuationRun() {
  ActuationRunConfig run;
  run.clean_window = 200;
  run.attack_lead = 150;
  run.settle_cap = 2000;
  run.post_window = 200;
  return run;
}

void ExpectSameActuation(const ActuationRunResult& a,
                         const ActuationRunResult& b) {
  EXPECT_EQ(a.settled, b.settled);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.applied, b.applied);
  EXPECT_EQ(a.alarm_tick, b.alarm_tick);
  EXPECT_EQ(a.time_to_settled, b.time_to_settled);
  EXPECT_EQ(a.rate_clean, b.rate_clean);
  EXPECT_EQ(a.rate_attacked, b.rate_attacked);
  EXPECT_EQ(a.rate_post, b.rate_post);
  EXPECT_EQ(a.mitigation.dispatches, b.mitigation.dispatches);
  EXPECT_EQ(a.mitigation.retries, b.mitigation.retries);
  EXPECT_EQ(a.mitigation.escalations, b.mitigation.escalations);
  EXPECT_EQ(a.actuation.injected, b.actuation.injected);
  EXPECT_EQ(a.actuation.latency_ticks, b.actuation.latency_ticks);
}

// RunGrid over a real job (the actuation chaos run) at 1, 4 and 8 workers:
// every result sits at cell * runs + run and is bit-equal to a serial call
// of the job for that (cell, run). The cells differ in fault kind and rate,
// so a cell or seed mix-up changes a value.
TEST(RunGridStressTest, ActuationGridIsCellMajorAtAnyThreadCount) {
  std::vector<ActuationRunConfig> cells(3, ShortActuationRun());
  cells[1].plan = fault::ActuationFaultPlan::Single(
      fault::ActuationFaultKind::kMigrationAbort, 0.5, 11);
  cells[2].plan = fault::ActuationFaultPlan::Single(
      fault::ActuationFaultKind::kCommandLost, 0.5, 12);
  for (auto& cell : {&cells[1], &cells[2]}) {
    cell->plan.latency_min_ticks = 2;
    cell->plan.latency_max_ticks = 8;
  }
  constexpr int kRuns = 2;
  const auto job = [&](std::size_t c, std::size_t r) {
    return RunActuationRun(cells[c], 7100 + r);
  };
  std::vector<ActuationRunResult> expected;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t r = 0; r < kRuns; ++r) expected.push_back(job(c, r));
  }
  for (int threads : {1, 4, kStressWorkers}) {
    SCOPED_TRACE(threads);
    const auto got = RunGrid(cells.size(), kRuns, threads, job);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(i);
      ExpectSameActuation(got[i], expected[i]);
    }
  }
}

// The four seeded sweeps run their grids on DefaultThreads() workers. Tiny
// grids here give the TSan job real interleavings of every sweep's job; the
// payload values are pinned by the `sweeps` ctest label.
TEST(RunGridStressTest, RobustnessSweepRunsInParallel) {
  RobustnessSweepConfig config;
  config.run.app = "bayes";
  config.run.profile_ticks = 3000;
  config.run.clean_ticks = 3000;
  config.run.attack_ticks = 3000;
  config.kinds = {fault::FaultKind::kDropSample};
  config.rates = {0.1};
  config.runs_per_cell = 2;
  const RobustnessSweepResult result = RunRobustnessSweep(config);
  EXPECT_EQ(result.baseline.runs, 2);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].runs, 2);
  EXPECT_GT(result.cells[0].counters.fault.injected_total(), 0u);
}

TEST(RunGridStressTest, ActuationSweepRunsInParallel) {
  ActuationSweepConfig config;
  config.run = ShortActuationRun();
  config.kinds = {fault::ActuationFaultKind::kMigrationAbort};
  config.rates = {0.5};
  config.runs_per_cell = 2;
  const ActuationSweepResult result = RunActuationSweep(config);
  EXPECT_EQ(result.baseline.runs, 2);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].runs, 2);
}

TEST(RunGridStressTest, HostChaosSweepRunsInParallel) {
  HostChaosSweepConfig config;
  config.run.attack_start = 500;
  config.run.horizon = 2000;
  config.run.params.window = 100;
  config.run.params.step = 25;
  config.run.params.h_c = 8;
  config.migration_periods = {400};
  config.crash_rates = {0.001};
  config.scheduled_crash_after = 400;
  config.scheduled_crash_down = 600;
  config.runs_per_cell = 1;
  const HostChaosSweepResult result = RunHostChaosSweep(config);
  ASSERT_EQ(result.migration_cells.size(), 1u);
  ASSERT_EQ(result.chaos_cells.size(), 1u);
  EXPECT_EQ(result.chaos_cells[0].crash_rate, 0.001);
  EXPECT_EQ(result.chaos_cells[0].warm.runs, 1);
  EXPECT_EQ(result.chaos_cells[0].cold.runs, 1);
}

TEST(RunGridStressTest, AttributionSweepRunsInParallel) {
  AttributionSweepConfig config;
  config.apps = {"kmeans"};
  config.attack_ticks = 400;
  std::ostringstream log;
  const AttributionSweepResult result = RunAttributionSweep(config, &log);
  ASSERT_EQ(result.cells.size(), 5u);
  // One log line per cell, in cell order, written after the grid.
  const std::string text = log.str();
  EXPECT_EQ(text.rfind("  kmeans / none: ", 0), 0u);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);
}

}  // namespace
}  // namespace sds::eval
