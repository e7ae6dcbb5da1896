// SARIF 2.1.0 and --stats JSON emitters (the legacy text/--json formats live
// in lint.cpp and are frozen byte-for-byte).
#include <filesystem>
#include <set>
#include <string>
#include <system_error>

#include "common/json.h"
#include "sdslint/lint.h"

namespace sdslint {
namespace {

namespace fs = std::filesystem;
using sds::JsonEscape;

// GitHub code scanning wants repo-relative, forward-slash URIs.
std::string SarifUri(const std::string& path, const std::string& root) {
  if (!root.empty()) {
    std::error_code ec;
    const fs::path rel = fs::relative(path, root, ec);
    if (!ec && !rel.empty()) {
      const std::string g = rel.generic_string();
      if (g.rfind("..", 0) != 0) return g;
    }
  }
  return fs::path(path).generic_string();
}

}  // namespace

std::string ToSarif(const Result& result, const std::string& root) {
  std::set<std::string> rule_ids;
  for (const Diagnostic& d : result.diagnostics) rule_ids.insert(d.rule);

  std::string out =
      "{\"version\":\"2.1.0\","
      "\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"runs\":[{\"tool\":{\"driver\":{\"name\":\"sdslint\","
      "\"informationUri\":\"DESIGN.md\",\"rules\":[";
  bool first = true;
  for (const std::string& id : rule_ids) {
    if (!first) out += ",";
    first = false;
    out += "{\"id\":\"" + JsonEscape(id) + "\"}";
  }
  out += "]}},\"results\":[";
  for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    if (i != 0) out += ",";
    out += "{\"ruleId\":\"" + JsonEscape(d.rule) +
           "\",\"level\":\"error\",\"message\":{\"text\":\"" +
           JsonEscape(d.message) +
           "\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":"
           "{\"uri\":\"" +
           JsonEscape(SarifUri(d.file, root)) +
           "\"},\"region\":{\"startLine\":" + std::to_string(d.line) +
           "}}}]}";
  }
  out += "]}]}";
  return out;
}

std::string StatsJson(const Result& result) {
  const Stats& s = result.stats;
  std::string out = "{\"files_scanned\":" + std::to_string(s.files_scanned) +
                    ",\"parsed\":" + std::to_string(s.parsed) +
                    ",\"functions\":" + std::to_string(s.functions) +
                    ",\"call_edges\":" + std::to_string(s.call_edges) +
                    ",\"taint_seeds\":" + std::to_string(s.taint_seeds) +
                    ",\"tainted_functions\":" +
                    std::to_string(s.tainted_functions) +
                    ",\"diagnostics\":" +
                    std::to_string(result.diagnostics.size()) +
                    ",\"suppressions\":" +
                    std::to_string(result.suppressions.size()) +
                    ",\"rule_hits\":{";
  bool first = true;
  for (const auto& [rule, count] : s.rule_hits) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(rule) + "\":" + std::to_string(count);
  }
  out += "}}";
  return out;
}

}  // namespace sdslint
