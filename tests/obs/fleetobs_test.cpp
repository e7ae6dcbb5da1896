// eval::RunFleetObsSweep: end-to-end obs-plane pin at test scale — the
// sharded merge matches the single-shard reference, the SLO pack fires on
// the attacked fleet, and the precision/recall curve is sane.
#include "eval/fleetobs.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace sds::eval {
namespace {

FleetObsConfig SmallConfig() {
  FleetObsConfig config;
  config.hosts = 4;
  config.tenants_per_host = 3;
  config.ticks = 900;
  config.window_ticks = 100;
  config.shards = 4;
  config.threads = 4;
  config.seed = 5;
  return config;
}

TEST(FleetObsSweepTest, ShardedMergeMatchesSingleShardReference) {
  const FleetObsResult result = RunFleetObsSweep(SmallConfig());
  EXPECT_TRUE(result.sharded_matches_single_shard);
  EXPECT_EQ(result.samples,
            4u * 3u * 4u * 900u);  // hosts x tenants x metrics x ticks
  EXPECT_EQ(result.dropped_late, 0u);
  EXPECT_EQ(result.dropped_samples, 0u);
  EXPECT_GT(result.rows, 0u);
  EXPECT_GT(result.ingest_rate_per_sec, 0.0);
}

TEST(FleetObsSweepTest, ResultIsThreadCountInvariant) {
  const FleetObsConfig config = SmallConfig();
  const FleetObsResult one = [&] {
    FleetObsConfig c = config;
    c.threads = 1;
    return RunFleetObsSweep(c);
  }();
  const FleetObsResult eight = [&] {
    FleetObsConfig c = config;
    c.threads = 8;
    return RunFleetObsSweep(c);
  }();
  EXPECT_EQ(one.rows, eight.rows);
  EXPECT_EQ(one.slo_alerts, eight.slo_alerts);
  ASSERT_EQ(one.curve.size(), eight.curve.size());
  for (std::size_t i = 0; i < one.curve.size(); ++i) {
    EXPECT_EQ(one.curve[i].true_positives, eight.curve[i].true_positives);
    EXPECT_EQ(one.curve[i].false_positives, eight.curve[i].false_positives);
  }
}

TEST(FleetObsSweepTest, AttackedFleetPagesAndCurveIsSane) {
  const FleetObsResult result = RunFleetObsSweep(SmallConfig());
  EXPECT_GT(result.attacked_pairs, 0u);
  EXPECT_GT(result.slo_alerts, 0u);
  EXPECT_GT(result.slo_pages, 0u);

  ASSERT_FALSE(result.curve.empty());
  for (const ThresholdPoint& p : result.curve) {
    EXPECT_GE(p.precision, 0.0);
    EXPECT_LE(p.precision, 1.0);
    EXPECT_GE(p.recall, 0.0);
    EXPECT_LE(p.recall, 1.0);
  }
  // Near the 600-tick SLO threshold the separation is clean.
  bool found_good_point = false;
  for (const ThresholdPoint& p : result.curve) {
    if (p.threshold == 600.0) {
      EXPECT_GE(p.precision, 0.9);
      EXPECT_GE(p.recall, 0.9);
      found_good_point = true;
    }
  }
  EXPECT_TRUE(found_good_point);
}

TEST(FleetObsSweepTest, CleanFleetRaisesNoAttackAlarms) {
  FleetObsConfig config = SmallConfig();
  config.attacked_fraction = 0.0;
  const FleetObsResult result = RunFleetObsSweep(config);
  EXPECT_EQ(result.attacked_pairs, 0u);
  for (const ThresholdPoint& p : result.curve) {
    EXPECT_EQ(p.true_positives, 0u);
    EXPECT_EQ(p.false_negatives, 0u);
    if (p.threshold >= 400.0) {
      EXPECT_EQ(p.false_positives, 0u) << p.threshold;
    }
  }
}

TEST(FleetObsSweepTest, JsonIsEmittedWithHeadlineFields) {
  const FleetObsConfig config = SmallConfig();
  const FleetObsResult result = RunFleetObsSweep(config);
  std::ostringstream os;
  WriteFleetObsJson(config, result, os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* field :
       {"\"samples\":", "\"rollup_memory_bytes\":",
        "\"slo_alerts\":", "\"curve\":", "\"sharded_matches_single_shard\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
}

TEST(FleetObsSweepTest, RollupStreamIsWrittenForFleetInspect) {
  std::ostringstream os;
  RunFleetObsSweep(SmallConfig(), &os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"type\":\"rollup\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"rollup_stats\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"slo_alert\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"slo_status\""), std::string::npos);
}

}  // namespace
}  // namespace sds::eval
