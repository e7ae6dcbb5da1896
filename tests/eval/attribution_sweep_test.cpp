#include "eval/attribution_sweep.h"

#include <sstream>

#include <gtest/gtest.h>

namespace sds::eval {
namespace {

AttributionSweepConfig SmallConfig() {
  AttributionSweepConfig config;
  config.apps = {"kmeans"};
  config.attack_ticks = 400;
  return config;
}

TEST(AttributionSweep, GridCoversQuietSingleAndColludingCells) {
  const AttributionSweepResult result = RunAttributionSweep(SmallConfig());
  // One app: quiet + bus-lock + cleansing + the colluding cell, then the
  // KStest cell.
  ASSERT_EQ(result.cells.size(), 5u);
  EXPECT_EQ(result.cells[0].attack, AttackKind::kNone);
  EXPECT_EQ(result.cells[0].true_attacker, 0u);
  EXPECT_EQ(result.cells[1].attack, AttackKind::kBusLock);
  EXPECT_EQ(result.cells[2].attack, AttackKind::kLlcCleansing);
  EXPECT_NE(result.cells[3].attack2, AttackKind::kNone);
  EXPECT_NE(result.cells[3].true_attacker2, 0u);
}

TEST(AttributionSweep, SingleAttackerCellsRankTrueAttackerFirst) {
  const AttributionSweepResult result = RunAttributionSweep(SmallConfig());
  for (const AttributionCell& cell : result.cells) {
    if (cell.true_attacker == 0 || cell.true_attacker2 != 0) continue;
    EXPECT_EQ(cell.rank_of_true, 1) << cell.app;
    EXPECT_TRUE(cell.attributed) << cell.app;
    EXPECT_EQ(cell.prime_suspect, cell.true_attacker) << cell.app;
  }
  EXPECT_DOUBLE_EQ(result.rank1_fraction, 1.0);
}

TEST(AttributionSweep, QuietCellStaysUnattributed) {
  const AttributionSweepResult result = RunAttributionSweep(SmallConfig());
  EXPECT_FALSE(result.cells[0].attributed);
  EXPECT_EQ(result.false_positives, 0);
}

TEST(AttributionSweep, ColludingCellNamesOneOfTheAttackers) {
  const AttributionSweepResult result = RunAttributionSweep(SmallConfig());
  const AttributionCell& cell = result.cells[3];
  EXPECT_TRUE(cell.attributed);
  EXPECT_TRUE(cell.prime_suspect == cell.true_attacker ||
              cell.prime_suspect == cell.true_attacker2)
      << "prime=" << cell.prime_suspect;
}

TEST(AttributionSweep, RepeatedSweepsFingerprintIdentically) {
  const AttributionSweepResult a = RunAttributionSweep(SmallConfig());
  const AttributionSweepResult b = RunAttributionSweep(SmallConfig());
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].prime_suspect, b.cells[i].prime_suspect) << i;
    EXPECT_EQ(a.cells[i].prime_score, b.cells[i].prime_score) << i;
  }
}

TEST(AttributionSweep, JsonCarriesSummaryAndCellRows) {
  const AttributionSweepConfig config = SmallConfig();
  const AttributionSweepResult result = RunAttributionSweep(config);
  std::ostringstream os;
  WriteAttributionJson(os, config, result);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"bench\":\"attrib\""), std::string::npos);
  EXPECT_NE(json.find("\"rank1_fraction\":1"), std::string::npos);
  EXPECT_NE(json.find("\"fingerprint\":\""), std::string::npos);
  EXPECT_NE(json.find("\"cells\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"rank_of_true\":1"), std::string::npos);
}

}  // namespace
}  // namespace sds::eval
