#include "eval/actuation.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace sds::eval {
namespace {

// CI-sized run windows: short but still long enough for the full retry /
// escalate / fallback chain to play out under 100% fault rates.
ActuationRunConfig SmallRun() {
  ActuationRunConfig run;
  run.clean_window = 200;
  run.attack_lead = 150;
  run.settle_cap = 2000;
  run.post_window = 200;
  return run;
}

TEST(ActuationEvalTest, BaselineSettlesAtTheAlarmTick) {
  const ActuationRunResult r = RunActuationRun(SmallRun(), 7100);
  EXPECT_TRUE(r.settled);
  EXPECT_EQ(r.time_to_settled, 0);  // null plan: synchronous inside OnAlarm
  EXPECT_EQ(r.applied, cluster::MitigationPolicy::kMigrateVictim);
  EXPECT_EQ(r.mitigation.retries, 0u);
  EXPECT_EQ(r.actuation.injected_total(), 0u);
  // The bus lock bites and migration relieves it.
  EXPECT_LT(r.rate_attacked, r.rate_clean);
  EXPECT_GT(r.rate_post, r.rate_attacked);
}

TEST(ActuationEvalTest, RunIsDeterministicPerSeed) {
  ActuationRunConfig run = SmallRun();
  run.plan = fault::ActuationFaultPlan::Single(
      fault::ActuationFaultKind::kMigrationAbort, 0.5, 99);
  run.plan.latency_min_ticks = 2;
  run.plan.latency_max_ticks = 8;
  const ActuationRunResult a = RunActuationRun(run, 7100);
  const ActuationRunResult b = RunActuationRun(run, 7100);
  EXPECT_EQ(a.settled, b.settled);
  EXPECT_EQ(a.time_to_settled, b.time_to_settled);
  EXPECT_EQ(a.mitigation.retries, b.mitigation.retries);
  EXPECT_EQ(a.actuation.injected_total(), b.actuation.injected_total());
  EXPECT_DOUBLE_EQ(a.rate_post, b.rate_post);
}

TEST(ActuationEvalTest, SweepSettlesEverywhereAtModerateRates) {
  // The acceptance bar: at every fault rate <= 50% the victim reaches
  // settled in 100% of seeded scenarios, and faulted cells are no faster
  // than the fault-free baseline.
  ActuationSweepConfig config;
  config.run = SmallRun();
  config.rates = {0.25, 0.5};
  config.runs_per_cell = 1;
  const ActuationSweepResult result = RunActuationSweep(config);

  EXPECT_DOUBLE_EQ(result.baseline.settle_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(result.baseline.mean_time_to_settled, 0.0);
  EXPECT_EQ(result.cells.size(), config.kinds.size() * config.rates.size());
  for (const auto& cell : result.cells) {
    SCOPED_TRACE(fault::ActuationFaultKindName(cell.kind) +
                 std::string(" @ ") + std::to_string(cell.rate));
    EXPECT_DOUBLE_EQ(cell.settle_ratio(), 1.0);
    EXPECT_EQ(cell.failed_runs, 0);
    EXPECT_GE(cell.mean_time_to_settled,
              result.baseline.mean_time_to_settled);
  }
}

TEST(ActuationEvalTest, JsonCarriesTheBenchSchema) {
  ActuationSweepConfig config;
  config.run = SmallRun();
  config.rates = {0.5};
  config.kinds = {fault::ActuationFaultKind::kMigrationAbort};
  config.runs_per_cell = 1;
  const ActuationSweepResult result = RunActuationSweep(config);

  std::ostringstream os;
  WriteActuationJson(os, config, result);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"bench\":\"actuation\""), std::string::npos);
  EXPECT_NE(json.find("\"baseline\":{"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"migration-abort\""), std::string::npos);
  EXPECT_NE(json.find("\"settle_ratio\":"), std::string::npos);
  EXPECT_NE(json.find("\"mean_residual_degradation\":"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace sds::eval
