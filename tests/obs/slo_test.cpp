// SloEngine: burn-rate level transitions and the default fleet rule pack.
#include "obs/slo.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/rollup.h"

namespace sds::obs {
namespace {

TEST(SloAggregateTest, MapsEveryAggregation) {
  RollupRow row;
  row.count = 4;
  row.sum = 10.0;
  row.min = 1.0;
  row.max = 5.0;
  row.p50 = 2.0;
  row.p95 = 4.5;
  row.p99 = 4.9;
  EXPECT_EQ(SloAggregate(row, SloAgg::kMean), 2.5);
  EXPECT_EQ(SloAggregate(row, SloAgg::kP50), 2.0);
  EXPECT_EQ(SloAggregate(row, SloAgg::kP95), 4.5);
  EXPECT_EQ(SloAggregate(row, SloAgg::kP99), 4.9);
  EXPECT_EQ(SloAggregate(row, SloAgg::kMin), 1.0);
  EXPECT_EQ(SloAggregate(row, SloAgg::kMax), 5.0);
  EXPECT_EQ(SloAggregate(row, SloAgg::kCount), 4.0);
  EXPECT_EQ(SloAggregate(row, SloAgg::kSum), 10.0);
}

// Rig: one metric, one rule "r: max(m) <= 10" with budget 0.25 over 4
// windows, warn at burn 1, page at burn 2 — violating 1 of the trailing 4
// windows burns at exactly 1.0, violating 2 burns at 2.0.
struct EngineRig {
  FleetRollup rollup;
  SloEngine engine;

  EngineRig()
      : rollup(RollupConfig{}),
        engine({{.name = "r",
                 .metric = "m",
                 .agg = SloAgg::kMax,
                 .op = SloOp::kLe,
                 .threshold = 10,
                 .budget = 0.25,
                 .burn_window = 4,
                 .warn_burn = 1,
                 .page_burn = 2}},
               &rollup) {
    rollup.RegisterMetric("m");
  }

  void Window(std::int64_t window, double value) {
    RollupRow row;
    row.window = window;
    row.key = {0, 0, 0};
    row.count = 1;
    row.sum = row.min = row.max = value;
    row.p50 = row.p95 = row.p99 = value;
    const std::vector<RollupRow> rows = {row};
    engine.OnWindow(window, rows);
  }
};

TEST(SloEngineTest, BurnRateTransitionsAndRecovery) {
  EngineRig rig;
  // Fill the trailing deque with clean windows so the burn denominator is
  // the full burn_window of 4.
  for (std::int64_t w = 0; w < 4; ++w) rig.Window(w, 5.0);
  EXPECT_EQ(rig.engine.status(0).level, SloLevel::kOk);
  EXPECT_EQ(rig.engine.alerts().size(), 0u);

  // One violation in the trailing 4 windows: burn = 0.25/0.25 = 1 -> warn.
  rig.Window(4, 20.0);
  EXPECT_EQ(rig.engine.status(0).level, SloLevel::kWarn);
  ASSERT_EQ(rig.engine.alerts().size(), 1u);
  EXPECT_EQ(rig.engine.alerts()[0].level, SloLevel::kWarn);
  EXPECT_EQ(rig.engine.alerts()[0].observed, 20.0);
  EXPECT_EQ(rig.engine.burning_rules(), 1u);

  // A second violation: burn = 2 -> page.
  rig.Window(5, 30.0);
  EXPECT_EQ(rig.engine.status(0).level, SloLevel::kPage);
  ASSERT_EQ(rig.engine.alerts().size(), 2u);
  EXPECT_EQ(rig.engine.alerts()[1].level, SloLevel::kPage);

  // Clean windows age the violations out of the trailing deque; the level
  // steps back down, emitting transitions.
  rig.Window(6, 5.0);
  rig.Window(7, 5.0);
  EXPECT_EQ(rig.engine.status(0).level, SloLevel::kPage);
  rig.Window(8, 5.0);  // violation at window 4 ages out -> warn
  EXPECT_EQ(rig.engine.status(0).level, SloLevel::kWarn);
  rig.Window(9, 5.0);  // violation at window 5 ages out -> ok
  EXPECT_EQ(rig.engine.status(0).level, SloLevel::kOk);
  EXPECT_EQ(rig.engine.alerts().size(), 4u);
  EXPECT_EQ(rig.engine.alerts().back().level, SloLevel::kOk);
  EXPECT_EQ(rig.engine.burning_rules(), 0u);
}

TEST(SloEngineTest, EmptyWindowsCountTowardBurnDenominator) {
  EngineRig rig;
  // A violation with a one-deep deque burns at (1/1)/0.25 = 4 -> page.
  rig.Window(0, 20.0);
  EXPECT_EQ(rig.engine.status(0).level, SloLevel::kPage);
  // Empty windows still advance the burn estimate: the violation dilutes,
  // then ages out entirely.
  for (std::int64_t w = 1; w <= 4; ++w) {
    rig.engine.OnWindow(w, {});
  }
  EXPECT_EQ(rig.engine.status(0).level, SloLevel::kOk);
  EXPECT_EQ(rig.engine.status(0).windows_seen, 5u);
}

TEST(SloEngineTest, WorstOffenderIsReported) {
  EngineRig rig;
  RollupRow a;
  a.window = 0;
  a.key = {1, 7, 0};
  a.count = 1;
  a.sum = a.min = a.max = 15.0;
  a.p50 = a.p95 = a.p99 = 15.0;
  RollupRow b = a;
  b.key = {2, 9, 0};
  b.sum = b.min = b.max = 40.0;
  b.p50 = b.p95 = b.p99 = 40.0;
  const std::vector<RollupRow> rows = {a, b};
  rig.engine.OnWindow(0, rows);

  ASSERT_EQ(rig.engine.alerts().size(), 1u);
  EXPECT_EQ(rig.engine.alerts()[0].host, 2u);
  EXPECT_EQ(rig.engine.alerts()[0].tenant, 9u);
  EXPECT_EQ(rig.engine.alerts()[0].observed, 40.0);
}

TEST(SloEngineTest, WriteJsonlEmitsAlertsAndStatus) {
  EngineRig rig;
  rig.Window(0, 20.0);
  std::ostringstream os;
  rig.engine.WriteJsonl(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"type\":\"slo_alert\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"slo_status\""), std::string::npos);
  EXPECT_NE(text.find("\"rule\":\"r\""), std::string::npos);
  EXPECT_NE(text.find("max(m) <= 10"), std::string::npos);
}

TEST(DefaultFleetSloRulesTest, PackParsesAndNamesAreUnique) {
  const std::vector<SloRule> rules = DefaultFleetSloRules();
  ASSERT_EQ(rules.size(), 4u);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    EXPECT_FALSE(rules[i].name.empty());
    EXPECT_FALSE(rules[i].metric.empty());
    for (std::size_t j = i + 1; j < rules.size(); ++j) {
      EXPECT_NE(rules[i].name, rules[j].name);
    }
  }
}

}  // namespace
}  // namespace sds::obs
