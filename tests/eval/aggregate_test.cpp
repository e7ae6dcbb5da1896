#include "eval/aggregate.h"

#include <atomic>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "eval/report.h"

namespace sds::eval {
namespace {

TEST(ParallelForTest, VisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> visits(100);
  ParallelFor(100, 4, [&](int i) { ++visits[static_cast<std::size_t>(i)]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, ZeroIterations) {
  int called = 0;
  ParallelFor(0, 4, [&](int) { ++called; });
  EXPECT_EQ(called, 0);
}

TEST(ParallelForTest, SingleThreadInline) {
  std::vector<int> order;
  ParallelFor(5, 1, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, WorkerExceptionPropagatesToCaller) {
  // A throw inside a worker used to escape the thread and terminate the
  // process; now the first exception is rethrown after all workers join.
  EXPECT_THROW(
      ParallelFor(64, 4,
                  [](int i) {
                    if (i == 17) throw std::runtime_error("run 17 failed");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, ExceptionStopsSchedulingRemainingWork) {
  std::atomic<int> ran{0};
  try {
    // Every even index throws, so each worker fails within its first couple
    // of claims no matter how the scheduler interleaves them.
    ParallelFor(10000, 2, [&](int i) {
      if (i % 2 == 0) throw std::runtime_error("fail fast");
      ++ran;
    });
    FAIL() << "expected the worker exception to propagate";
  } catch (const std::runtime_error&) {
  }
  // Workers stop claiming indices after the first failure; only a bounded
  // prefix of the 5000 odd iterations can have run.
  EXPECT_LT(ran.load(), 100);
}

TEST(ParallelForTest, InlinePathPropagatesException) {
  EXPECT_THROW(
      ParallelFor(3, 1, [](int) { throw std::runtime_error("inline"); }),
      std::runtime_error);
}

TEST(DefaultThreadsTest, Bounded) {
  EXPECT_GE(DefaultThreads(8), 1);
  EXPECT_LE(DefaultThreads(8), 8);
  EXPECT_EQ(DefaultThreads(1), 1);
}

TEST(FormatSummaryTest, RendersMedianAndBar) {
  PercentileSummary s;
  s.p10 = 0.8;
  s.median = 0.9;
  s.p90 = 1.0;
  EXPECT_EQ(FormatSummary(s, 2), "0.90 [0.80, 1.00]");
}

TEST(AggregateDetectionTest, ShortSweepProducesSaneMetrics) {
  DetectionRunConfig cfg;
  cfg.app = "bayes";
  cfg.attack = AttackKind::kBusLock;
  cfg.scheme = Scheme::kSds;
  // Short stages keep this test quick while exercising the whole pipeline.
  cfg.profile_ticks = 6000;
  cfg.clean_ticks = 5000;
  cfg.attack_ticks = 8000;
  const auto aggs = AggregateDetection({cfg}, 2, 10, 1);
  ASSERT_EQ(aggs.size(), 1u);
  const auto& agg = aggs[0];
  EXPECT_EQ(agg.runs, 2);
  EXPECT_EQ(agg.detected_runs, 2);
  EXPECT_DOUBLE_EQ(agg.recall.median, 1.0);
  EXPECT_GE(agg.specificity.median, 0.5);
  EXPECT_GT(agg.delay_seconds.median, 0.0);
  EXPECT_LT(agg.delay_seconds.median, 80.0);
}

TEST(AggregateOverheadTest, SchemeNoneHasRatioOne) {
  OverheadRunConfig cfg;
  cfg.app = "bayes";
  cfg.work_target_units = 500;
  const auto aggs = AggregateOverhead(cfg, {Scheme::kNone}, 2, 5, 1);
  ASSERT_EQ(aggs.size(), 1u);
  EXPECT_EQ(aggs[0].runs, 2);
  EXPECT_DOUBLE_EQ(aggs[0].normalized_time.median, 1.0);
}

TEST(SchemeNameTest, AllNames) {
  EXPECT_STREQ(SchemeName(Scheme::kNone), "none");
  EXPECT_STREQ(SchemeName(Scheme::kSdsB), "SDS/B");
  EXPECT_STREQ(SchemeName(Scheme::kSdsP), "SDS/P");
  EXPECT_STREQ(SchemeName(Scheme::kSds), "SDS");
  EXPECT_STREQ(SchemeName(Scheme::kKsTest), "KStest");
}

}  // namespace
}  // namespace sds::eval
