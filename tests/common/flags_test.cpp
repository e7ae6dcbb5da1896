#include "common/flags.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace sds {
namespace {

std::vector<char*> MakeArgv(std::vector<std::string>& storage) {
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return argv;
}

TEST(FlagsTest, ParsesEqualsForm) {
  std::vector<std::string> args = {"prog", "--runs=5", "--app=kmeans"};
  auto argv = MakeArgv(args);
  Flags f;
  ASSERT_TRUE(f.Parse(static_cast<int>(argv.size()), argv.data(),
                      {{"runs", "number of runs"},
                       {"app", "catalog application"}}));
  EXPECT_EQ(f.GetInt("runs", 0), 5);
  EXPECT_EQ(f.GetString("app", ""), "kmeans");
}

TEST(FlagsTest, ParsesSpaceForm) {
  std::vector<std::string> args = {"prog", "--runs", "7"};
  auto argv = MakeArgv(args);
  Flags f;
  ASSERT_TRUE(f.Parse(static_cast<int>(argv.size()), argv.data(),
                      {{"runs", "number of runs"}}));
  EXPECT_EQ(f.GetInt("runs", 0), 7);
}

TEST(FlagsTest, BareFlagIsBooleanTrue) {
  std::vector<std::string> args = {"prog", "--csv"};
  auto argv = MakeArgv(args);
  Flags f;
  ASSERT_TRUE(f.Parse(static_cast<int>(argv.size()), argv.data(),
                      {{"csv", "print CSV"}}));
  EXPECT_TRUE(f.GetBool("csv", false));
}

TEST(FlagsTest, UnknownFlagFails) {
  std::vector<std::string> args = {"prog", "--bogus=1"};
  auto argv = MakeArgv(args);
  Flags f;
  EXPECT_FALSE(f.Parse(static_cast<int>(argv.size()), argv.data(),
                       {{"runs", "number of runs"}}));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  std::vector<std::string> args = {"prog"};
  auto argv = MakeArgv(args);
  Flags f;
  ASSERT_TRUE(f.Parse(static_cast<int>(argv.size()), argv.data(),
                      {{"x", "a flag"}}));
  EXPECT_EQ(f.GetInt("x", 42), 42);
  EXPECT_EQ(f.GetString("x", "d"), "d");
  EXPECT_DOUBLE_EQ(f.GetDouble("x", 1.5), 1.5);
  EXPECT_FALSE(f.GetBool("x", false));
  EXPECT_FALSE(f.Has("x"));
}

TEST(FlagsTest, PositionalArgumentsCollected) {
  std::vector<std::string> args = {"prog", "pos1", "--runs=1", "pos2"};
  auto argv = MakeArgv(args);
  Flags f;
  ASSERT_TRUE(f.Parse(static_cast<int>(argv.size()), argv.data(),
                      {{"runs", "number of runs"}}));
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "pos1");
  EXPECT_EQ(f.positional()[1], "pos2");
}

TEST(FlagsTest, DoubleParsing) {
  std::vector<std::string> args = {"prog", "--alpha=0.25"};
  auto argv = MakeArgv(args);
  Flags f;
  ASSERT_TRUE(f.Parse(static_cast<int>(argv.size()), argv.data(),
                      {{"alpha", "a double"}}));
  EXPECT_DOUBLE_EQ(f.GetDouble("alpha", 0.0), 0.25);
}

TEST(FlagsTest, HelpStopsParsingAndSetsHelpRequested) {
  std::vector<std::string> args = {"prog", "--help"};
  auto argv = MakeArgv(args);
  Flags f;
  EXPECT_FALSE(f.Parse(static_cast<int>(argv.size()), argv.data(),
                       {{"runs", "number of runs"}}));
  EXPECT_TRUE(f.help_requested());
}

TEST(FlagsTest, UnknownFlagIsNotHelp) {
  std::vector<std::string> args = {"prog", "--bogus"};
  auto argv = MakeArgv(args);
  Flags f;
  EXPECT_FALSE(f.Parse(static_cast<int>(argv.size()), argv.data(),
                       {{"runs", "number of runs"}}));
  EXPECT_FALSE(f.help_requested());
}

TEST(FlagsTest, DescribedSpecsParseLikePlainNames) {
  std::vector<std::string> args = {"prog", "--runs=5", "--app=kmeans"};
  auto argv = MakeArgv(args);
  Flags f;
  ASSERT_TRUE(f.Parse(static_cast<int>(argv.size()), argv.data(),
                      {{"runs", "number of runs"},
                       {"app", "catalog application"}}));
  EXPECT_EQ(f.GetInt("runs", 0), 5);
  EXPECT_EQ(f.GetString("app", ""), "kmeans");
}

TEST(FlagsTest, BooleanSpecDoesNotConsumeFollowingToken) {
  std::vector<std::string> args = {"prog", "--json", "path/a", "path/b"};
  auto argv = MakeArgv(args);
  Flags f;
  ASSERT_TRUE(f.Parse(static_cast<int>(argv.size()), argv.data(),
                      {{"json", "machine-readable output", true}}));
  EXPECT_TRUE(f.GetBool("json", false));
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "path/a");
  EXPECT_EQ(f.positional()[1], "path/b");
}

TEST(FlagsTest, NonBooleanSpecStillTakesSeparateValue) {
  std::vector<std::string> args = {"prog", "--root", "somewhere"};
  auto argv = MakeArgv(args);
  Flags f;
  ASSERT_TRUE(f.Parse(static_cast<int>(argv.size()), argv.data(),
                      {{"root", "include root"}}));
  EXPECT_EQ(f.GetString("root", ""), "somewhere");
  EXPECT_TRUE(f.positional().empty());
}

TEST(FlagsTest, HelpDoesNotConsumeFollowingToken) {
  std::vector<std::string> args = {"prog", "--help", "positional"};
  auto argv = MakeArgv(args);
  Flags f;
  EXPECT_FALSE(f.Parse(static_cast<int>(argv.size()), argv.data(),
                       {{"runs", "number of runs"}}));
  EXPECT_TRUE(f.help_requested());
}

TEST(FlagsTest, MalformedNumberExitsWithMessage) {
  for (const char* bad : {"7100x", "abc", "1e400", "nan"}) {
    SCOPED_TRACE(bad);
    std::vector<std::string> args = {"prog", std::string("--seed=") + bad};
    auto argv = MakeArgv(args);
    Flags f;
    ASSERT_TRUE(f.Parse(static_cast<int>(argv.size()), argv.data(),
                        {{"seed", "a seed"}}));
    const std::string message =
        std::string("prog: --seed: malformed value '") + bad + "'";
    EXPECT_EXIT(f.GetInt("seed", 0), testing::ExitedWithCode(1), message);
    EXPECT_EXIT(f.GetDouble("seed", 0.0), testing::ExitedWithCode(1),
                message);
  }
}

// Parses `--list=<value>` (or nothing when value is null) and returns the
// GetList<T> result with `fallback` as the default.
template <typename T>
std::optional<std::vector<T>> ParseList(const char* value,
                                        const std::string& fallback = "") {
  std::vector<std::string> args = {"prog"};
  if (value != nullptr) args.push_back(std::string("--list=") + value);
  auto argv = MakeArgv(args);
  Flags f;
  EXPECT_TRUE(f.Parse(static_cast<int>(argv.size()), argv.data(),
                      {{"list", "a list"}}));
  return f.GetList<T>("list", fallback);
}

TEST(FlagsTest, ListParsesNumbersAndSkipsEmptyElements) {
  EXPECT_EQ(ParseList<double>("0.01,0.05,,0.2"),
            (std::vector<double>{0.01, 0.05, 0.2}));
  EXPECT_EQ(ParseList<std::int64_t>("800,1600,3200"),
            (std::vector<std::int64_t>{800, 1600, 3200}));
  EXPECT_EQ(ParseList<double>(""), std::vector<double>{});
  EXPECT_EQ(ParseList<double>(nullptr, "0.1,0.25"),
            (std::vector<double>{0.1, 0.25}));
}

TEST(FlagsTest, ListRejectsMalformedElements) {
  for (const char* bad : {"abc", "0.5x", "0.1,,x", "1e400", "nan", "inf",
                          " 0.5", "+0.5"}) {
    SCOPED_TRACE(bad);
    testing::internal::CaptureStderr();
    EXPECT_EQ(ParseList<double>(bad), std::nullopt);
    EXPECT_NE(testing::internal::GetCapturedStderr().find("--list"),
              std::string::npos);
  }
  for (const char* bad : {"1.5", "800x", "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    testing::internal::CaptureStderr();
    EXPECT_EQ(ParseList<std::int64_t>(bad), std::nullopt);
    testing::internal::GetCapturedStderr();
  }
}

TEST(FlagsTest, UnknownChoiceExitsWithAcceptedNames) {
  std::vector<std::string> args = {"prog", "--attack=cleansing"};
  auto argv = MakeArgv(args);
  Flags f;
  ASSERT_TRUE(f.Parse(static_cast<int>(argv.size()), argv.data(),
                      {{"attack", "attack program"}}));
  EXPECT_EXIT(f.GetChoice("attack", "bus-lock", {"bus-lock", "llc-cleansing"}),
              testing::ExitedWithCode(1),
              "prog: --attack: unknown value 'cleansing' \\(accepted: "
              "bus-lock, llc-cleansing\\)");
}

TEST(FlagsTest, ChoiceReturnsTheValueOrTheDefault) {
  std::vector<std::string> args = {"prog", "--policy=rewarm"};
  auto argv = MakeArgv(args);
  Flags f;
  ASSERT_TRUE(f.Parse(static_cast<int>(argv.size()), argv.data(),
                      {{"policy", "gap policy"}, {"scheme", "scheme"}}));
  const std::vector<std::string> policies = {"hold-last", "rewarm"};
  EXPECT_EQ(f.GetChoice("policy", "hold-last", policies), "rewarm");
  EXPECT_EQ(f.GetChoice("scheme", "SDS", {"SDS", "KStest"}), "SDS");
}

}  // namespace
}  // namespace sds
