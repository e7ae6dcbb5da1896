// Fixture-driven tests for the sdslint analyzer (tools/sdslint).
//
// The fixture tree (tests/lint/fixtures, baked in as SDSLINT_FIXTURE_DIR)
// mimics the repo layout with deliberately seeded violations; every expected
// diagnostic is pinned to an exact (file, line, rule-id) triple so a rule
// regression — missed violation OR new false positive — fails loudly. The
// suppressed_* fixtures prove the allow() escape hatch silences precisely
// its rule, and RepoTreeIsClean pins the acceptance guarantee that the real
// tree lints clean.
#include "sdslint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

namespace sdslint {
namespace {

Result RunOnFixtures() {
  Options options;
  options.paths = {SDSLINT_FIXTURE_DIR};
  options.include_root = SDSLINT_FIXTURE_DIR;
  return Run(options);
}

// True when the diagnostic list holds exactly one entry for the given
// path-suffix/line, and it carries `rule`.
bool HasDiagnostic(const Result& r, const std::string& file_suffix, int line,
                   const std::string& rule) {
  for (const Diagnostic& d : r.diagnostics) {
    if (d.line == line && d.rule == rule &&
        d.file.size() >= file_suffix.size() &&
        d.file.compare(d.file.size() - file_suffix.size(),
                       file_suffix.size(), file_suffix) == 0) {
      return true;
    }
  }
  return false;
}

int CountForFile(const Result& r, const std::string& file_suffix) {
  int n = 0;
  for (const Diagnostic& d : r.diagnostics) {
    if (d.file.size() >= file_suffix.size() &&
        d.file.compare(d.file.size() - file_suffix.size(),
                       file_suffix.size(), file_suffix) == 0) {
      ++n;
    }
  }
  return n;
}

TEST(SdslintFixtures, ExactDiagnosticSet) {
  const Result r = RunOnFixtures();
  const struct {
    const char* file;
    int line;
    const char* rule;
  } kExpected[] = {
      {"src/cluster/direct_migrate.cpp", 10, kRuleDetActuationIdempotent},
      {"src/cluster/direct_migrate.cpp", 11, kRuleDetActuationIdempotent},
      {"src/cluster/direct_migrate.cpp", 12, kRuleDetActuationIdempotent},
      {"src/cluster/includes_obs.cpp", 4, kRuleLayerDag},
      {"src/detect/includes_eval.h", 3, kRuleLayerDag},
      {"src/detect/includes_fault.cpp", 4, kRuleLayerDag},
      {"src/detect/mutates_ledger.cpp", 11, kRuleDetAttribLedger},
      {"src/detect/mutates_ledger.cpp", 12, kRuleDetAttribLedger},
      {"src/detect/mutates_ledger.cpp", 13, kRuleDetAttribLedger},
      {"src/detect/mutates_ledger.cpp", 14, kRuleDetAttribLedger},
      {"src/detect/unordered_iter.cpp", 12, kRuleDetUnorderedIter},
      {"src/eval/raw_handoff.cpp", 11, kRuleDetHandoffVersioned},
      {"src/eval/raw_handoff.cpp", 12, kRuleDetHandoffVersioned},
      {"src/obs/unversioned_snapshot.cpp", 8, kRuleDetFrameVersioned},
      {"src/pcm/wallclock.cpp", 5, kRuleDetClock},
      {"src/pcm/wallclock.cpp", 9, kRuleDetClock},
      {"src/pcm/wallclock.cpp", 13, kRuleDetPointerPrint},
      {"src/sim/includes_detect.cpp", 1, kRuleLayerDag},
      // The marker only suppresses at the start of a `//` comment.
      {"src/sim/unsuppressed_rand.cpp", 4, kRuleDetRand},
      {"src/sim/unsuppressed_rand.cpp", 6, kRuleDetRand},
      {"src/sim/unsuppressed_rand.cpp", 9, kRuleDetRand},
      {"src/sim/uses_rand.cpp", 5, kRuleDetRand},
      {"src/sim/uses_rand.cpp", 9, kRuleDetRand},
      {"src/sim/uses_rand.cpp", 13, kRuleDetRand},
      {"src/stats/no_pragma.h", 3, kRuleHdrPragmaOnce},
      {"src/stats/not_self_contained.h", 3, kRuleHdrSelfContained},
      {"src/svc/includes_obs.cpp", 5, kRuleLayerDag},
      {"src/svc/unversioned_wal.cpp", 7, kRuleDetFrameVersioned},
      {"src/vm/header_telemetry.h", 3, kRuleHdrTelemetryFwd},
  };
  for (const auto& e : kExpected) {
    EXPECT_TRUE(HasDiagnostic(r, e.file, e.line, e.rule))
        << "missing " << e.file << ":" << e.line << " [" << e.rule << "]";
  }
  // Exactly the seeded set: anything extra is a false positive.
  EXPECT_EQ(r.diagnostics.size(), std::size(kExpected));
}

TEST(SdslintFixtures, DiagnosticFormatIsFileLineRule) {
  const Result r = RunOnFixtures();
  ASSERT_FALSE(r.diagnostics.empty());
  const std::string text = FormatText(r.diagnostics.front());
  // file:line: [rule-id] message
  const std::size_t bracket = text.find(": [");
  ASSERT_NE(bracket, std::string::npos) << text;
  EXPECT_NE(text.find("] ", bracket), std::string::npos) << text;
  const std::size_t colon = text.rfind(':', bracket - 1);
  ASSERT_NE(colon, std::string::npos) << text;
  EXPECT_GT(std::stoi(text.substr(colon + 1, bracket - colon - 1)), 0);
}

TEST(SdslintFixtures, SuppressionCommentSilencesEachRule) {
  const Result r = RunOnFixtures();
  // Every suppressed_* / *_allowed fixture must produce zero diagnostics:
  // both the comment-line and trailing allow() forms.
  EXPECT_EQ(CountForFile(r, "src/sim/suppressed_rand.cpp"), 0);
  EXPECT_EQ(CountForFile(r, "src/detect/suppressed_iter.cpp"), 0);
  EXPECT_EQ(CountForFile(r, "src/detect/includes_eval_allowed.h"), 0);
  EXPECT_EQ(CountForFile(r, "src/stats/no_pragma_allowed.h"), 0);
  EXPECT_EQ(CountForFile(r, "src/cluster/suppressed_direct.cpp"), 0);
  EXPECT_EQ(CountForFile(r, "src/obs/suppressed_unversioned.cpp"), 0);
  EXPECT_EQ(CountForFile(r, "src/svc/suppressed_unversioned_wal.cpp"), 0);
  EXPECT_EQ(CountForFile(r, "src/detect/suppressed_ledger.cpp"), 0);
  EXPECT_EQ(CountForFile(r, "src/eval/suppressed_raw_handoff.cpp"), 0);
  // ...and each allow() comment must be reported as used, so stale escape
  // hatches are auditable via --list-suppressions.
  ASSERT_EQ(r.suppressions.size(), 10u);
  for (const Suppression& s : r.suppressions) {
    EXPECT_TRUE(s.used) << s.file << ":" << s.comment_line;
  }
}

TEST(SdslintFixtures, CleanFilesStayClean) {
  const Result r = RunOnFixtures();
  // std::map iteration and find() on an unordered container are fine.
  EXPECT_EQ(CountForFile(r, "src/common/clean.cpp"), 0);
  // Self-containment accepts headers satisfied transitively through the
  // project include graph.
  EXPECT_EQ(CountForFile(r, "src/stats/vec_provider.h"), 0);
  EXPECT_EQ(CountForFile(r, "src/stats/transitively_ok.h"), 0);
  // %d with a modulo expression must not be read as pointer printing, and
  // only the two clock reads + one %p fire in wallclock.cpp.
  EXPECT_EQ(CountForFile(r, "src/pcm/wallclock.cpp"), 3);
  // Snapshot serialization sealed by the frame codec is clean — the rule
  // keys on the codec's API, not on where it appears.
  EXPECT_EQ(CountForFile(r, "src/obs/versioned_snapshot.cpp"), 0);
  // Same for WAL framing through the codec.
  EXPECT_EQ(CountForFile(r, "src/svc/versioned_wal.cpp"), 0);
  // Detector state moved through the versioned handoff envelope is the
  // sanctioned migration path — det-handoff-versioned keys on the raw
  // SaveState/RestoreState verbs only.
  EXPECT_EQ(CountForFile(r, "src/eval/enveloped_handoff.cpp"), 0);
  // The sim layer recording into the attribution ledger is the sanctioned
  // mutation path — det-attrib-ledger only fires OUTSIDE sim.
  EXPECT_EQ(CountForFile(r, "src/sim/ledger_ok.cpp"), 0);
}

TEST(SdslintFixtures, JsonOutputIsWellFormedAndComplete) {
  const Result r = RunOnFixtures();
  const std::string json = ToJson(r);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"files_scanned\":"), std::string::npos);
  // Every rule that fired appears in the JSON stream.
  for (const char* rule :
       {kRuleLayerDag, kRuleDetRand, kRuleDetClock, kRuleDetPointerPrint,
        kRuleDetUnorderedIter, kRuleDetActuationIdempotent,
        kRuleDetAttribLedger,
        kRuleDetFrameVersioned, kRuleDetHandoffVersioned,
        kRuleHdrPragmaOnce,
        kRuleHdrSelfContained, kRuleHdrTelemetryFwd}) {
    EXPECT_NE(json.find(std::string("\"rule\":\"") + rule + "\""),
              std::string::npos)
        << rule;
  }
}

TEST(SdslintLayers, RankTableMatchesDesignDoc) {
  EXPECT_EQ(LayerRank("common"), 0);
  EXPECT_EQ(LayerRank("stats"), LayerRank("signal"));
  EXPECT_LT(LayerRank("sim"), LayerRank("vm"));
  EXPECT_LT(LayerRank("vm"), LayerRank("pcm"));
  EXPECT_LT(LayerRank("pcm"), LayerRank("detect"));
  EXPECT_EQ(LayerRank("detect"), LayerRank("attacks"));
  EXPECT_EQ(LayerRank("detect"), LayerRank("workloads"));
  EXPECT_LT(LayerRank("detect"), LayerRank("cluster"));
  EXPECT_EQ(LayerRank("obs"), LayerRank("cluster"));
  EXPECT_LT(LayerRank("cluster"), LayerRank("svc"));
  EXPECT_LT(LayerRank("svc"), LayerRank("eval"));
  EXPECT_LT(LayerRank("eval"), LayerRank("tests"));
  EXPECT_EQ(LayerRank("no-such-layer"), -1);

  EXPECT_TRUE(IsDeterministicLayer("sim"));
  EXPECT_TRUE(IsDeterministicLayer("detect"));
  EXPECT_TRUE(IsDeterministicLayer("cluster"));
  EXPECT_TRUE(IsDeterministicLayer("obs"));
  EXPECT_TRUE(IsDeterministicLayer("svc"));
  EXPECT_FALSE(IsDeterministicLayer("telemetry"));
  EXPECT_FALSE(IsDeterministicLayer("eval"));
  EXPECT_FALSE(IsDeterministicLayer("tests"));

  EXPECT_EQ(LayerOfPath("src/sim/cache.cpp"), "sim");
  EXPECT_EQ(LayerOfPath("tests/lint/fixtures/src/sim/x.cpp"), "sim");
  EXPECT_EQ(LayerOfPath("bench/common/bench_common.h"), "bench");
  EXPECT_EQ(LayerOfPath("README.md"), "");
}

// Pins the acceptance guarantee: the real tree lints clean. Runs the full
// rule set over the repo exactly like `make lint` / CI do (the fixture tree
// is skipped via the same default ignore the CLI uses).
TEST(SdslintRepo, RepoTreeIsClean) {
  const std::filesystem::path root = SDSLINT_REPO_ROOT;
  ASSERT_TRUE(std::filesystem::is_directory(root / "src"));
  Options options;
  for (const char* tree : {"src", "tests", "bench", "tools", "examples"}) {
    options.paths.push_back((root / tree).string());
  }
  options.include_root = root.string();
  options.ignores = {"build/", "tests/lint/fixtures"};
  const Result r = ::sdslint::Run(options);
  for (const Diagnostic& d : r.diagnostics) {
    ADD_FAILURE() << FormatText(d);
  }
  EXPECT_GT(r.files_scanned, 150);
}

}  // namespace
}  // namespace sdslint
