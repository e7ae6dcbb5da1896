// Minimal command-line flag parsing for the bench/example/tool binaries.
//
// Supports --name=value and --name value forms plus boolean --name. Each
// known flag is registered with a description; `--help` prints a usage table
// and Parse returns false with help_requested() set, so binaries exit 0 on
// help and nonzero on a real parse error. Unknown flags are an error so
// typos in experiment sweeps fail loudly (and now print the table of what IS
// known) instead of silently running the default configuration.
#pragma once

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sds {

// A registered flag: its name and the description --help prints for it.
struct FlagSpec {
  FlagSpec(std::string flag_name, std::string flag_description)
      : name(std::move(flag_name)), description(std::move(flag_description)) {}
  FlagSpec(std::string flag_name, std::string flag_description,
           bool is_boolean)
      : name(std::move(flag_name)),
        description(std::move(flag_description)),
        boolean(is_boolean) {}

  std::string name;
  std::string description;
  // Boolean flags never consume the following token as their value, so
  // `tool --json path` keeps `path` positional. Non-boolean flags retain the
  // legacy greedy `--name value` behaviour.
  bool boolean = false;
};

class Flags {
 public:
  // Parses argv. On error prints a message plus the usage table to stderr
  // and returns false. On --help prints the usage table to stdout, sets
  // help_requested() and returns false; callers should then exit 0:
  //   if (!flags.Parse(...)) return flags.help_requested() ? 0 : 1;
  bool Parse(int argc, char** argv, const std::vector<FlagSpec>& known);

  // True when parsing stopped because --help was given.
  bool help_requested() const { return help_requested_; }

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  // A value that is not exactly one finite number (trailing bytes, nan,
  // out of range) prints `<prog>: --<name>: malformed value '<v>'` to
  // stderr and exits 1, so a typo never runs a different experiment.
  long long GetInt(const std::string& name, long long default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;
  // The value of an enum-valued flag (default_value when absent). A value
  // outside `accepted` prints `<prog>: --<name>: unknown value '<v>'` and
  // the accepted names to stderr and exits 1, so a typo never silently runs
  // the default configuration.
  std::string GetChoice(const std::string& name,
                        const std::string& default_value,
                        const std::vector<std::string>& accepted) const;
  // A comma-separated list of numbers (empty elements are skipped). T is
  // double or std::int64_t. On an element that is not exactly one finite
  // number, prints a message naming the flag to stderr and returns nullopt;
  // callers then exit 1.
  template <typename T>
  std::optional<std::vector<T>> GetList(const std::string& name,
                                        const std::string& default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  void PrintUsage(std::FILE* out) const;
  template <typename T>
  T GetNumber(const std::string& name, T default_value) const;

  std::string program_ = "program";
  std::vector<FlagSpec> known_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  bool help_requested_ = false;
};

}  // namespace sds
