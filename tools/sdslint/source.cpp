#include "sdslint/source.h"

#include <cctype>
#include <fstream>
#include <iterator>

namespace sdslint {
namespace {

bool IsWord(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Blanks comments and string/char literal bodies out of `raw` line by line,
// carrying block-comment state across lines. Every blanked byte becomes one
// space, so a code line is a column-aligned prefix of its raw line that ends
// where a trailing `//` comment starts. Literal bodies are collected per line
// into `strings` so the %p rule can look only inside format strings.
// Line/token analysis does not need raw-string or trigraph fidelity; the one
// R"( in the tree is handled well enough by the '"' state machine.
void StripFile(SourceText& f) {
  bool in_block = false;
  f.code.reserve(f.raw.size());
  f.strings.reserve(f.raw.size());
  for (const std::string& line : f.raw) {
    std::string code;
    code.reserve(line.size());
    std::string lits;
    bool in_string = false;
    bool in_char = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      const char next = i + 1 < line.size() ? line[i + 1] : '\0';
      if (in_block) {
        if (c == '*' && next == '/') {
          in_block = false;
          code.push_back(' ');
          ++i;
        }
        code.push_back(' ');
        continue;
      }
      if (in_string || in_char) {
        const char quote = in_string ? '"' : '\'';
        if (c == '\\' && next != '\0') {
          if (in_string) lits.push_back(next);
          code.append(2, ' ');
          ++i;
          continue;
        }
        if (c == quote) {
          in_string = in_char = false;
          code.push_back(c);
        } else {
          if (in_string) lits.push_back(c);
          code.push_back(' ');
        }
        continue;
      }
      if (c == '/' && next == '/') break;  // line comment: drop the rest
      if (c == '/' && next == '*') {
        in_block = true;
        code.append(2, ' ');
        ++i;
        continue;
      }
      if (c == '"') {
        in_string = true;
        code.push_back(c);
        continue;
      }
      if (c == '\'') {
        in_char = true;
        code.push_back(c);
        continue;
      }
      code.push_back(c);
    }
    f.code.push_back(std::move(code));
    f.strings.push_back(std::move(lits));
  }
}

// Splits the raw rule list of an allow(...) comment on commas/whitespace.
std::vector<std::string> SplitAllowRules(const std::string& raw) {
  std::vector<std::string> rules;
  std::string cur;
  for (char c : raw + ",") {
    if (c == ',' || c == ' ' || c == '\t') {
      if (!cur.empty()) rules.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  return rules;
}

}  // namespace

bool LoadSource(const std::string& path, SourceText* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  out->path = path;
  out->raw.clear();
  out->code.clear();
  out->strings.clear();
  std::string line;
  for (std::size_t i = 0; i <= bytes.size(); ++i) {
    if (i == bytes.size()) {
      if (!line.empty()) out->raw.push_back(std::move(line));
      break;
    }
    if (bytes[i] == '\n') {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      out->raw.push_back(std::move(line));
      line.clear();
    } else {
      line.push_back(bytes[i]);
    }
  }
  StripFile(*out);
  return true;
}

std::string Trimmed(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

std::size_t FindToken(const std::string& line, const std::string& token,
                      std::size_t from) {
  for (std::size_t p = line.find(token, from); p != std::string::npos;
       p = line.find(token, p + 1)) {
    const bool left_ok = p == 0 || !IsWord(line[p - 1]);
    const std::size_t after = p + token.size();
    const bool right_ok = after >= line.size() || !IsWord(line[after]);
    if (left_ok && right_ok) return p;
  }
  return std::string::npos;
}

bool HasToken(const std::string& line, const std::string& token) {
  return FindToken(line, token) != std::string::npos;
}

void ParseIncludes(const SourceText& f, std::vector<IncludeDirective>* out) {
  for (std::size_t i = 0; i < f.raw.size(); ++i) {
    std::string t = Trimmed(f.raw[i]);
    if (t.empty() || t[0] != '#') continue;
    std::size_t p = t.find_first_not_of(" \t", 1);
    if (p == std::string::npos || t.compare(p, 7, "include") != 0) continue;
    p = t.find_first_of("\"<", p + 7);
    if (p == std::string::npos) continue;
    const bool angle = t[p] == '<';
    const char close = angle ? '>' : '"';
    const std::size_t end = t.find(close, p + 1);
    if (end == std::string::npos) continue;
    out->push_back(
        {static_cast<int>(i) + 1, t.substr(p + 1, end - p - 1), angle});
  }
}

void ParseAllows(const SourceText& f, std::vector<AllowComment>* out) {
  for (std::size_t i = 0; i < f.raw.size(); ++i) {
    const std::string& line = f.raw[i];
    // Only a `//` comment whose text starts with the marker suppresses; the
    // marker inside a block comment, a string or mid-sentence does not.
    const std::size_t slashes = f.code[i].size();
    if (line.compare(slashes, 2, "//") != 0) continue;
    const std::size_t p = line.find_first_not_of(" \t", slashes + 2);
    if (p == std::string::npos || line.compare(p, 8, "sdslint:") != 0) {
      continue;
    }
    std::size_t q = line.find_first_not_of(" \t", p + 8);
    if (q == std::string::npos || line.compare(q, 5, "allow") != 0) continue;
    std::size_t open = line.find('(', q + 5);
    if (open == std::string::npos) continue;
    std::size_t close = line.find(')', open);
    if (close == std::string::npos) continue;
    AllowComment a;
    a.comment_line = static_cast<int>(i) + 1;
    a.raw_rules = line.substr(open + 1, close - open - 1);
    a.rules = SplitAllowRules(a.raw_rules);
    const bool comment_only = Trimmed(f.code[i]).empty();
    a.target_line = comment_only ? a.comment_line + 1 : a.comment_line;
    out->push_back(std::move(a));
  }
}

}  // namespace sdslint
