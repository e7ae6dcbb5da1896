// Tests for the multi-pass analyzer: cross-TU call graph linkage,
// interprocedural determinism taint, the concurrency rule family, and
// SARIF/stats output.
//
// The seeded tree lives in tests/lint/fixtures2 (data, never compiled).
// Scan sets are chosen per test so each pass is exercised in isolation; the
// full-tree pin at the end freezes the exact (file, line, rule) set.
#include <filesystem>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sdslint/lint.h"

namespace sdslint {
namespace {

namespace fs = std::filesystem;

std::string Fix2(const std::string& sub) {
  return std::string(SDSLINT_FIXTURE2_DIR) + (sub.empty() ? "" : "/" + sub);
}

Result RunOn(const std::vector<std::string>& paths,
             const std::string& include_root) {
  Options options;
  options.paths = paths;
  options.include_root = include_root;
  return Run(options);
}

using Triple = std::tuple<std::string, int, std::string>;  // file, line, rule

std::set<Triple> Triples(const Result& r, const std::string& root) {
  std::set<Triple> out;
  for (const Diagnostic& d : r.diagnostics) {
    out.insert({fs::relative(d.file, root).generic_string(), d.line, d.rule});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Interprocedural determinism taint
// ---------------------------------------------------------------------------

// The tentpole demonstration: detect/planner.cpp contains no sink token of
// its own — the violation is reachable only through two intermediate calls
// in headers of another layer. The taint pass reports it at the call site
// with the full chain down to the sink.
TEST(SdslintTaint, CrossFileChainThroughTwoIntermediateCalls) {
  const Result r = RunOn({Fix2("src/detect")}, Fix2(""));
  ASSERT_EQ(r.diagnostics.size(), 1u);
  const Diagnostic& d = r.diagnostics[0];
  EXPECT_EQ(fs::path(d.file).filename(), "planner.cpp");
  EXPECT_EQ(d.line, 16);
  EXPECT_EQ(d.rule, kRuleDetTaint);
  // Full chain: caller-side callee -> intermediate -> sink token with the
  // sink's own location.
  EXPECT_NE(d.message.find("sds::stats::SeededMixture"), std::string::npos);
  EXPECT_NE(d.message.find("sds::stats::NoiseFloor"), std::string::npos);
  EXPECT_NE(d.message.find("random_device [det-rand]"), std::string::npos);
  EXPECT_NE(d.message.find("noise_floor.h:11"), std::string::npos);
}

// The same scan set with include resolution broken: the per-file token rules
// (the scanner this pass replaces as the only line of defence) find NOTHING
// in planner.cpp — proof the violation is invisible without the cross-TU
// call graph.
TEST(SdslintTaint, TokenScannerAloneMissesTheViolation) {
  const Result r =
      RunOn({Fix2("src/detect")}, Fix2("no/such/include/root"));
  EXPECT_TRUE(r.diagnostics.empty());
  EXPECT_EQ(r.files_scanned, 2);  // planner.h + planner.cpp were scanned
}

// Telemetry is the write-only observability plane: its wall-clock reads are
// charter, never taint. A deterministic caller into telemetry stays clean.
TEST(SdslintTaint, TelemetryCalleeSeedsNoTaint) {
  const Result r = RunOn({Fix2("src/vm")}, Fix2(""));
  EXPECT_TRUE(r.diagnostics.empty()) << FormatText(r.diagnostics.front());
}

// Unordered-ness declared in one file, iterated in another: the per-file
// rule sees neither half, the closure-aware pass joins them.
TEST(SdslintTaint, CrossFileUnorderedIterationDetected) {
  const Result r = RunOn({Fix2("src/sim")}, Fix2(""));
  ASSERT_EQ(r.diagnostics.size(), 1u);
  const Diagnostic& d = r.diagnostics[0];
  EXPECT_EQ(fs::path(d.file).filename(), "registry_iter.cpp");
  EXPECT_EQ(d.line, 10);
  EXPECT_EQ(d.rule, kRuleDetUnorderedIter);
  EXPECT_NE(d.message.find("'live_table'"), std::string::npos);
  EXPECT_NE(d.message.find("registry.h"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrency rule family
// ---------------------------------------------------------------------------

TEST(SdslintConc, GuardedShardOwnedAndLockOrder) {
  const Result r = RunOn({Fix2("src/obs")}, Fix2(""));
  const std::set<Triple> expected = {
      {"src/obs/confused_slot.h", 14, kRuleConcShardOwned},
      {"src/obs/guarded_cache.h", 20, kRuleConcGuardedBy},
      {"src/obs/ordered_locks.h", 22, kRuleConcLockOrder},
      {"src/obs/shard_state.h", 16, kRuleConcShardOwned},
  };
  EXPECT_EQ(Triples(r, Fix2("")), expected);
  // GuardedCache::Record (lock held) and ::PeekLocked (SDS_ASSERT_HELD) are
  // legal accesses — implied by the exact set above.
  EXPECT_EQ(r.diagnostics.size(), 4u);
}

// ---------------------------------------------------------------------------
// Full-tree pin
// ---------------------------------------------------------------------------

TEST(SdslintV2Fixtures, ExactDiagnosticSet) {
  const Result r = RunOn({Fix2("src")}, Fix2(""));
  const std::set<Triple> expected = {
      {"src/detect/planner.cpp", 16, kRuleDetTaint},
      {"src/obs/confused_slot.h", 14, kRuleConcShardOwned},
      {"src/obs/guarded_cache.h", 20, kRuleConcGuardedBy},
      {"src/obs/ordered_locks.h", 22, kRuleConcLockOrder},
      {"src/obs/shard_state.h", 16, kRuleConcShardOwned},
      {"src/sim/registry_iter.cpp", 10, kRuleDetUnorderedIter},
      {"src/stats/mixture.h", 10, kRuleDetTaint},
      {"src/stats/noise_floor.h", 11, kRuleDetRand},
  };
  EXPECT_EQ(Triples(r, Fix2("")), expected);
  EXPECT_EQ(r.diagnostics.size(), 8u);
}

TEST(SdslintV2Fixtures, StatsCountTheGraph) {
  const Result r = RunOn({Fix2("src")}, Fix2(""));
  EXPECT_GT(r.stats.functions, 0);
  EXPECT_GE(r.stats.call_edges, 3);       // planner->mixture->noise + vm->telemetry
  EXPECT_GE(r.stats.taint_seeds, 2);      // random_device + unordered iter
  EXPECT_GE(r.stats.tainted_functions, 3);  // NoiseFloor, SeededMixture, PlanThresholds
  ASSERT_TRUE(r.stats.rule_hits.count(kRuleDetTaint));
  EXPECT_EQ(r.stats.rule_hits.at(kRuleDetTaint), 2);
  const std::string json = StatsJson(r);
  EXPECT_NE(json.find("\"call_edges\":"), std::string::npos);
  EXPECT_NE(json.find("\"rule_hits\":{"), std::string::npos);
  EXPECT_NE(json.find("\"det-taint\":2"), std::string::npos);
}

TEST(SdslintV2Fixtures, SarifOutputIsWellFormed) {
  const Result r = RunOn({Fix2("src")}, Fix2(""));
  const std::string sarif = ToSarif(r, Fix2(""));
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"sdslint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\":\"det-taint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\":\"conc-lock-order\""), std::string::npos);
  // Root-relative forward-slash URIs for code scanning.
  EXPECT_NE(sarif.find("\"uri\":\"src/detect/planner.cpp\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":16"), std::string::npos);
  // One result per diagnostic.
  std::size_t results = 0, at = 0;
  while ((at = sarif.find("\"ruleId\":", at)) != std::string::npos) {
    ++results;
    ++at;
  }
  EXPECT_EQ(results, r.diagnostics.size());
}

}  // namespace
}  // namespace sdslint
