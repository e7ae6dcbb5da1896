// Golden pin for the service chaos-restart sweep (DESIGN.md §14,
// EXPERIMENTS.md): every crash point in the deterministic grid fires, every
// recovered run is bit-identical to the never-crashed reference, the feed
// exercises every admission rung and backpressure tier, and the accounting
// JSONL + BENCH_svc JSON carry the fields the inspection tooling keys on.
#include "eval/service_chaos.h"

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>

namespace sds::eval {
namespace {

// A shorter feed than bench_svc_chaos_sweep's over the same crash-point
// grid: every crash kind, three ordinals, whole-frame-lost and half-frame
// tears.
ServiceChaosConfig ShortConfig() {
  ServiceChaosConfig config;
  config.tenants = 4;
  config.ticks = 400;
  config.attack_start = 200;
  config.seed = 42;
  config.threads = 2;
  return config;
}

TEST(ServiceChaosTest, EveryCrashPointRecoversBitIdentical) {
  std::ostringstream accounting;
  const ServiceChaosResult result =
      RunServiceChaosSweep(ShortConfig(), &accounting);

  // Grid shape: per op fraction, one mid-WAL point per byte fraction, one
  // mid-checkpoint point per byte fraction, one after-append point.
  ASSERT_EQ(result.points.size(),
            std::size(kCrashOpFractions) *
                (2 * std::size(kCrashByteFractions) + 1));

  EXPECT_TRUE(result.all_bit_identical);
  for (const ChaosPointResult& p : result.points) {
    EXPECT_TRUE(p.fired) << fault::ServiceFaultKindName(p.kind)
                         << " op=" << p.op_index;
    EXPECT_TRUE(p.bit_identical) << fault::ServiceFaultKindName(p.kind)
                                 << " op=" << p.op_index;
    EXPECT_GE(p.crash_tick, 0);
  }

  // The reference run must actually detect: the attacked tenants alarm.
  EXPECT_GE(result.ref_alarms, 1u);
  EXPECT_GE(result.ref_decisions, result.ref_alarms);

  // The feed is built to exercise every rung and tier; a rung whose count
  // is zero means that code path went untested.
  const svc::SvcAccounting& a = result.ref_accounting;
  EXPECT_GT(a.admitted, 0u);
  EXPECT_GT(a.coalesced, 0u);
  EXPECT_GT(a.shed, 0u);
  EXPECT_GT(a.rejected_malformed, 0u);
  EXPECT_GT(a.rejected_insane, 0u);
  EXPECT_GT(a.rejected_future, 0u);
  EXPECT_GT(a.rejected_stale, 0u);
  EXPECT_GT(a.rejected_quarantined, 0u);
  EXPECT_GT(a.quarantines_started, 0u);
  EXPECT_EQ(a.offered, result.feed_events);

  // Accounting JSONL: one svc_ref line + one svc_recovery line per point
  // (what tools/inspect --svc consumes).
  const std::string lines = accounting.str();
  std::size_t ref_lines = 0;
  std::size_t recovery_lines = 0;
  for (std::size_t pos = 0;
       (pos = lines.find("{\"type\":\"svc_ref\"", pos)) != std::string::npos;
       ++pos) {
    ++ref_lines;
  }
  for (std::size_t pos = 0;
       (pos = lines.find("{\"type\":\"svc_recovery\"", pos)) !=
       std::string::npos;
       ++pos) {
    ++recovery_lines;
  }
  EXPECT_EQ(ref_lines, 1u);
  EXPECT_EQ(recovery_lines, result.points.size());
}

TEST(ServiceChaosTest, RecoveryCurveGrowsWithCrashOrdinal) {
  const ServiceChaosResult result = RunServiceChaosSweep(ShortConfig());

  // A later crash leaves more durable history behind: the late after-append
  // point must replay at least as many WAL records + dedupe at least as
  // many redelivered events as the early one.
  const ChaosPointResult* early = nullptr;
  const ChaosPointResult* late = nullptr;
  for (const ChaosPointResult& p : result.points) {
    if (p.kind != fault::ServiceFaultKind::kCrashAfterWalAppend) continue;
    if (early == nullptr || p.op_index < early->op_index) early = &p;
    if (late == nullptr || p.op_index > late->op_index) late = &p;
  }
  ASSERT_NE(early, nullptr);
  ASSERT_NE(late, nullptr);
  ASSERT_LT(early->op_index, late->op_index);
  EXPECT_GE(late->redelivered_deduped, early->redelivered_deduped);
  EXPECT_GT(late->redelivered_deduped, 0u);
}

TEST(ServiceChaosTest, BenchJsonCarriesTheCurve) {
  const ServiceChaosConfig config = ShortConfig();
  const ServiceChaosResult result = RunServiceChaosSweep(config);

  std::ostringstream os;
  WriteServiceChaosJson(config, result, os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"\"bench\":\"svc\"", "\"feed_events\":", "\"ref_alarms\":",
        "\"ref_shed_rate\":", "\"crash_points\":",
        "\"all_bit_identical\":true", "\"recovery_curve\":[",
        "\"replayed\":", "\"deduped\":", "\"bit_identical\":true"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace sds::eval
