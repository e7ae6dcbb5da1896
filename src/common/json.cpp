#include "common/json.h"

#include <cstdio>

namespace sds {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string JsonEscape(const char* s) {
  return s == nullptr ? std::string() : JsonEscape(std::string_view(s));
}

bool ParseJsonLine(const std::string& line, JsonObject& out) {
  out.clear();
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  skip_ws();
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  while (true) {
    skip_ws();
    if (i < line.size() && line[i] == '}') return true;
    // Key.
    if (i >= line.size() || line[i] != '"') return false;
    const auto key_end = line.find('"', i + 1);
    if (key_end == std::string::npos) return false;
    std::string key = line.substr(i + 1, key_end - i - 1);
    i = key_end + 1;
    skip_ws();
    if (i >= line.size() || line[i] != ':') return false;
    ++i;
    skip_ws();
    if (i >= line.size()) return false;
    // Value: string, array or nested object (kept verbatim), or bare token
    // (number/bool).
    std::string value;
    if (line[i] == '"') {
      const auto end = line.find('"', i + 1);
      if (end == std::string::npos) return false;
      value = line.substr(i + 1, end - i - 1);
      i = end + 1;
    } else if (line[i] == '[') {
      const auto end = line.find(']', i);
      if (end == std::string::npos) return false;
      value = line.substr(i, end - i + 1);
      i = end + 1;
    } else if (line[i] == '{') {
      // One level of nesting (the sdslint stats payload's flat "rule_hits"
      // object).
      const auto end = line.find('}', i);
      if (end == std::string::npos) return false;
      value = line.substr(i, end - i + 1);
      i = end + 1;
    } else {
      const auto end = line.find_first_of(",}", i);
      if (end == std::string::npos) return false;
      value = line.substr(i, end - i);
      i = end;
    }
    out.emplace(std::move(key), std::move(value));
    skip_ws();
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    if (i < line.size() && line[i] == '}') return true;
    return false;
  }
}

double NumOr(const JsonObject& o, const std::string& key, double fallback) {
  const auto it = o.find(key);
  if (it == o.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (...) {
    return fallback;
  }
}

std::string StrOr(const JsonObject& o, const std::string& key,
                  const std::string& fallback) {
  const auto it = o.find(key);
  return it == o.end() ? fallback : it->second;
}

std::vector<JsonObject> ParseObjectArray(const std::string& raw) {
  std::vector<JsonObject> out;
  std::size_t i = 0;
  while ((i = raw.find('{', i)) != std::string::npos) {
    const auto end = raw.find('}', i);
    if (end == std::string::npos) break;
    JsonObject o;
    if (ParseJsonLine(raw.substr(i, end - i + 1), o)) {
      out.push_back(std::move(o));
    }
    i = end + 1;
  }
  return out;
}

}  // namespace sds
