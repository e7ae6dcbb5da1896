#include "common/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace sds {
namespace {

// True when `token` is exactly one finite T: std::from_chars, so no leading
// whitespace or '+', no trailing bytes, and no nan/inf or out-of-range value.
template <typename T>
bool ParseNumber(const std::string& token, T* out) {
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, *out);
  return ec == std::errc() && ptr == last &&
         std::isfinite(static_cast<double>(*out));
}

}  // namespace

void Flags::PrintUsage(std::FILE* out) const {
  std::fprintf(out, "usage: %s [--flag[=value]] [positional...]\n",
               program_.c_str());
  std::size_t width = 4;  // "help"
  for (const auto& spec : known_) width = std::max(width, spec.name.size());
  for (const auto& spec : known_) {
    std::fprintf(out, "  --%-*s  %s\n", static_cast<int>(width),
                 spec.name.c_str(),
                 spec.description.empty() ? "(no description)"
                                          : spec.description.c_str());
  }
  std::fprintf(out, "  --%-*s  %s\n", static_cast<int>(width), "help",
               "print this usage table and exit");
}

bool Flags::Parse(int argc, char** argv, const std::vector<FlagSpec>& known) {
  known_ = known;
  if (argc > 0 && argv[0] != nullptr) program_ = argv[0];
  const auto find_spec = [&](const std::string& name) -> const FlagSpec* {
    for (const FlagSpec& s : known_) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      // --name value form, unless the next token is another flag, absent, or
      // this flag never takes a value (--help and registered boolean flags).
      const FlagSpec* spec = find_spec(name);
      const bool takes_value =
          name != "help" && (spec == nullptr || !spec->boolean);
      if (takes_value && i + 1 < argc &&
          std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    if (name == "help") {
      help_requested_ = true;
      PrintUsage(stdout);
      return false;
    }
    if (find_spec(name) == nullptr) {
      std::fprintf(stderr, "%s: unknown flag --%s\n", program_.c_str(),
                   name.c_str());
      PrintUsage(stderr);
      return false;
    }
    values_[name] = value;
  }
  return true;
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  const auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

template <typename T>
T Flags::GetNumber(const std::string& name, T default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  T value{};
  if (!ParseNumber(it->second, &value)) {
    std::fprintf(stderr, "%s: --%s: malformed value '%s'\n", program_.c_str(),
                 name.c_str(), it->second.c_str());
    std::exit(1);
  }
  return value;
}

long long Flags::GetInt(const std::string& name, long long default_value) const {
  return GetNumber(name, default_value);
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  return GetNumber(name, default_value);
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::string Flags::GetChoice(const std::string& name,
                             const std::string& default_value,
                             const std::vector<std::string>& accepted) const {
  const std::string value = GetString(name, default_value);
  if (std::find(accepted.begin(), accepted.end(), value) != accepted.end()) {
    return value;
  }
  std::fprintf(stderr, "%s: --%s: unknown value '%s' (accepted:",
               program_.c_str(), name.c_str(), value.c_str());
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    std::fprintf(stderr, "%s %s", i == 0 ? "" : ",", accepted[i].c_str());
  }
  std::fprintf(stderr, ")\n");
  std::exit(1);
}

template <typename T>
std::optional<std::vector<T>> Flags::GetList(
    const std::string& name, const std::string& default_value) const {
  const std::string text = GetString(name, default_value);
  std::vector<T> out;
  for (std::size_t begin = 0; begin <= text.size();) {
    const std::size_t end = std::min(text.find(',', begin), text.size());
    const std::string token = text.substr(begin, end - begin);
    begin = end + 1;
    if (token.empty()) continue;
    T value{};
    if (!ParseNumber(token, &value)) {
      std::fprintf(stderr, "%s: --%s: malformed list element '%s'\n",
                   program_.c_str(), name.c_str(), token.c_str());
      return std::nullopt;
    }
    out.push_back(value);
  }
  return out;
}

template std::optional<std::vector<double>> Flags::GetList<double>(
    const std::string&, const std::string&) const;
template std::optional<std::vector<std::int64_t>> Flags::GetList<std::int64_t>(
    const std::string&, const std::string&) const;

}  // namespace sds
