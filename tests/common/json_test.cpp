// Tests for common/json.h: the JSON string escaper every emitter uses and
// the flat-JSONL reader tools/inspect uses. The reader is fed one real line
// of every record type the inspector consumes, then seeded mutants of those
// lines (every truncation, bit flips, splices of two lines): each mutant
// must either parse or be rejected, never crash or read out of bounds.
#include "common/json.h"

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace sds {
namespace {

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonEscape("\x01"), "\\u0001");
  EXPECT_EQ(JsonEscape(nullptr), "");
  EXPECT_EQ(JsonEscape(std::string("a\"b")), "a\\\"b");
}

TEST(JsonEscapeTest, EscapesEveryControlByte) {
  for (int c = 0; c < 0x20; ++c) {
    std::string expected;
    if (c == '\n') {
      expected = "\\n";
    } else if (c == '\t') {
      expected = "\\t";
    } else if (c == '\r') {
      expected = "\\r";
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      expected = buf;
    }
    const char byte = static_cast<char>(c);
    EXPECT_EQ(JsonEscape(std::string_view(&byte, 1)), expected) << "byte " << c;
  }
  // Printable ASCII and bytes above 0x7f pass through unchanged.
  EXPECT_EQ(JsonEscape(" ~\x7f\xc3\xa9"), " ~\x7f\xc3\xa9");
}

// One line of each record type the inspector reads, as the repo's writers
// emit them: telemetry metric/event/audit, a forensic report with its
// suspects array, a fleet rollup row, a service recovery row and the
// sdslint stats payload with its nested rule_hits object.
const std::vector<std::string>& RealLines() {
  static const std::vector<std::string> lines = {
      R"({"type":"metric","metric":"counter","name":"pcm.missed_ticks","value":0})",
      R"({"type":"event","tick":795,"layer":"sim.bus","event":"lock_window_open","owner":2,"slots":40})",
      R"({"type":"audit","tick":200,"detector":"SDS","check":"boundary","channel":"AccessNum","value":470.495,"lower":462.145,"upper":489.745,"margin":-0.680678,"violation":false,"consecutive":0,"alarm":false})",
      R"({"type":"forensic_report","alarm_tick":600,"target":1,"attributed":true,"prime_suspect":2,"kstest_culprit":0,"kstest_agrees":false,"window_start":89,"window_end":600,"first_evidence_tick":200,"evidence_lead_ticks":400,"suspects":[{"vm":2,"score":0.591864,"evictions":63,"bus_delay":7066232,"occupancy":4514432},{"vm":5,"score":0.0632447,"evictions":1003,"bus_delay":18382,"occupancy":14843},{"vm":9,"score":0.0619279,"evictions":981,"bus_delay":18679,"occupancy":15246}]})",
      R"({"type":"rollup","window":0,"host":0,"tenant":0,"metric":"detect.latency_ticks","count":100,"sum":24765.4,"min":200.921,"max":297.147,"p50":245.357,"p95":286.184,"p99":286.184})",
      R"({"type":"svc_recovery","kind":"crash_mid_wal_append","op_index":1074,"byte_fraction":0.5,"fired":1,"crash_tick":112,"from_checkpoint":1,"replayed":178,"skipped":0,"deduped":960,"wal_valid_bytes":15069,"wal_stop":"torn_frame","bit_identical":1,"alarms":1,"shed_rate":0.164606})",
      R"({"schema_version":1,"files_scanned":31,"cache_hits":0,"parsed":31,"functions":54,"call_edges":0,"taint_seeds":7,"tainted_functions":7,"diagnostics":26,"baselined":0,"stale_baseline_entries":0,"suppressions":10,"rule_hits":{"det-clock":2,"det-rand":3,"layer-dag":4}})",
  };
  return lines;
}

// Runs the reader over one (possibly damaged) line the way the inspector
// does: parse, then read every field as a number and as a string, and expand
// every verbatim array or nested object. A parsed line may only hold text
// taken from the input.
void ReadLikeAnInspector(const std::string& line) {
  JsonObject o;
  if (!ParseJsonLine(line, o)) return;
  for (const auto& [key, value] : o) {
    EXPECT_NE(line.find(key), std::string::npos) << line;
    EXPECT_NE(line.find(value), std::string::npos) << line;
    (void)NumOr(o, key, 0.0);
    (void)StrOr(o, key, "");
    if (!value.empty() && value.front() == '[') {
      (void)ParseObjectArray(value);
    } else if (!value.empty() && value.front() == '{') {
      JsonObject nested;
      (void)ParseJsonLine(value, nested);
    }
  }
}

TEST(JsonReaderTest, ParsesEveryRealRecordType) {
  const auto& lines = RealLines();
  JsonObject o;
  for (const std::string& line : lines) {
    EXPECT_TRUE(ParseJsonLine(line, o)) << line;
  }

  ASSERT_TRUE(ParseJsonLine(lines[1], o));
  EXPECT_EQ(StrOr(o, "layer", "?"), "sim.bus");
  EXPECT_EQ(NumOr(o, "slots", 0.0), 40.0);
  EXPECT_EQ(NumOr(o, "missing", -1.0), -1.0);
  EXPECT_EQ(NumOr(o, "layer", -1.0), -1.0);  // not a number

  ASSERT_TRUE(ParseJsonLine(lines[2], o));
  EXPECT_EQ(StrOr(o, "violation", "?"), "false");
  EXPECT_DOUBLE_EQ(NumOr(o, "margin", 0.0), -0.680678);

  ASSERT_TRUE(ParseJsonLine(lines[3], o));
  const auto suspects = ParseObjectArray(StrOr(o, "suspects", "[]"));
  ASSERT_EQ(suspects.size(), 3u);
  EXPECT_EQ(NumOr(suspects[0], "vm", 0.0), 2.0);
  EXPECT_EQ(NumOr(suspects[2], "occupancy", 0.0), 15246.0);

  ASSERT_TRUE(ParseJsonLine(lines[6], o));
  JsonObject hits;
  ASSERT_TRUE(ParseJsonLine(StrOr(o, "rule_hits", "{}"), hits));
  EXPECT_EQ(hits.size(), 3u);
  EXPECT_EQ(NumOr(hits, "layer-dag", 0.0), 4.0);
}

TEST(JsonReaderTest, RejectsEveryTruncation) {
  for (const std::string& line : RealLines()) {
    for (std::size_t n = 0; n < line.size(); ++n) {
      const std::string cut = line.substr(0, n);
      JsonObject o;
      EXPECT_FALSE(ParseJsonLine(cut, o)) << cut;
      ReadLikeAnInspector(cut);
    }
  }
}

TEST(JsonReaderTest, SurvivesSeededBitFlips) {
  Rng rng(20201129);
  for (const std::string& line : RealLines()) {
    for (int trial = 0; trial < 400; ++trial) {
      std::string mutant = line;
      const std::uint64_t flips = 1 + rng.UniformInt(std::uint64_t{3});
      for (std::uint64_t f = 0; f < flips; ++f) {
        const std::size_t pos = rng.UniformInt(std::uint64_t{mutant.size()});
        const int bit = static_cast<int>(rng.UniformInt(std::uint64_t{8}));
        mutant[pos] = static_cast<char>(mutant[pos] ^ (1 << bit));
      }
      ReadLikeAnInspector(mutant);
    }
  }
}

TEST(JsonReaderTest, SurvivesSplicedLines) {
  Rng rng(1129);
  const auto& lines = RealLines();
  for (const std::string& head : lines) {
    for (const std::string& tail : lines) {
      for (int trial = 0; trial < 40; ++trial) {
        const std::size_t cut_head = rng.UniformInt(std::uint64_t{head.size()});
        const std::size_t cut_tail = rng.UniformInt(std::uint64_t{tail.size()});
        ReadLikeAnInspector(head.substr(0, cut_head) + tail.substr(cut_tail));
      }
    }
  }
}

}  // namespace
}  // namespace sds
