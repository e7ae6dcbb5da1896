#include "sdslint/symbols.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <set>

#include "sdslint/lint.h"

namespace sdslint {
namespace {

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// ---------------------------------------------------------------------------
// Legacy line-based scans (ported verbatim from the v1 analyzer so the
// direct-rule diagnostics stay byte-compatible).
// ---------------------------------------------------------------------------

struct StdProvider {
  const char* ident;      // identifier after std::
  const char* providers;  // comma-separated satisfying <headers>
};

// Identifiers checked by hdr-self-contained. Deliberately restricted to types
// with an unambiguous home header (plus a few multi-provider stream cases) so
// the rule stays false-positive-free; pervasive transitively-available names
// (size_t, pair, move, swap) are out of scope.
constexpr StdProvider kStdProviders[] = {
    {"string", "string"},
    {"string_view", "string_view"},
    {"vector", "vector"},
    {"map", "map"},
    {"multimap", "map"},
    {"set", "set"},
    {"multiset", "set"},
    {"unordered_map", "unordered_map"},
    {"unordered_set", "unordered_set"},
    {"optional", "optional"},
    {"function", "functional"},
    {"array", "array"},
    {"deque", "deque"},
    {"atomic", "atomic"},
    {"thread", "thread"},
    {"mutex", "mutex"},
    {"lock_guard", "mutex"},
    {"unique_lock", "mutex"},
    {"condition_variable", "condition_variable"},
    {"chrono", "chrono"},
    {"int8_t", "cstdint"},
    {"int16_t", "cstdint"},
    {"int32_t", "cstdint"},
    {"int64_t", "cstdint"},
    {"uint8_t", "cstdint"},
    {"uint16_t", "cstdint"},
    {"uint32_t", "cstdint"},
    {"uint64_t", "cstdint"},
    {"FILE", "cstdio"},
    {"unique_ptr", "memory"},
    {"shared_ptr", "memory"},
    {"make_unique", "memory"},
    {"make_shared", "memory"},
    {"variant", "variant"},
    {"monostate", "variant"},
    {"span", "span"},
    {"ifstream", "fstream"},
    {"ofstream", "fstream"},
    {"stringstream", "sstream"},
    {"ostringstream", "sstream"},
    {"istringstream", "sstream"},
    {"ostream", "ostream,iostream,fstream,sstream,iosfwd"},
    {"istream", "istream,iostream,fstream,sstream,iosfwd"},
};

// Direct determinism sink tokens. `requires_call` mirrors v1: bare `rand`
// only counts when invoked.
struct BanToken {
  const char* token;
  bool requires_call;
  const char* rule;
};
constexpr BanToken kBanTokens[] = {
    {"rand", true, kRuleDetRand},
    {"srand", false, kRuleDetRand},
    {"random_device", false, kRuleDetRand},
    {"system_clock", false, kRuleDetClock},
    {"steady_clock", false, kRuleDetClock},
    {"high_resolution_clock", false, kRuleDetClock},
    {"clock_gettime", false, kRuleDetClock},
    {"gettimeofday", false, kRuleDetClock},
};

constexpr const char* kMutationVerbs[] = {
    "Migrate",         "StopVm",           "ResumeVm",     "RecordTickStart",
    "RecordEviction",  "RecordBusOccupancy", "RecordBusStall",
    "SaveState",       "RestoreState"};

void ScanSinks(const SourceText& f, FileSummary* out) {
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    for (const BanToken& ban : kBanTokens) {
      std::size_t p = FindToken(line, ban.token);
      if (p == std::string::npos) continue;
      if (ban.requires_call) {
        std::size_t q =
            line.find_first_not_of(" \t", p + std::strlen(ban.token));
        if (q == std::string::npos || line[q] != '(') continue;
      }
      out->sinks.push_back(
          {-1, static_cast<int>(i) + 1, ban.rule, ban.token});
    }
    // Pointer printing: %p inside a string literal renders an ASLR-random
    // address into output that is diffed across runs.
    if (f.strings[i].find("%p") != std::string::npos) {
      out->sinks.push_back(
          {-1, static_cast<int>(i) + 1, kRuleDetPointerPrint, "%p"});
    }
  }
}

void ScanVerbCalls(const SourceText& f, FileSummary* out) {
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    for (const char* verb : kMutationVerbs) {
      for (std::size_t p = FindToken(line, verb); p != std::string::npos;
           p = FindToken(line, verb, p + 1)) {
        // Member-call syntax only: obj.Verb( / ptr->Verb(. Declarations
        // never match (word boundary / preceding character).
        if (p == 0) continue;
        const char before = line[p - 1];
        if (before != '.' && before != '>') continue;
        std::size_t q = line.find_first_not_of(" \t", p + std::strlen(verb));
        if (q == std::string::npos || line[q] != '(') continue;
        out->verb_calls.push_back({static_cast<int>(i) + 1, verb});
      }
    }
  }
}

void ScanStdUses(const SourceText& f, FileSummary* out) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    for (std::size_t p = line.find("std::"); p != std::string::npos;
         p = line.find("std::", p + 5)) {
      if (p > 0 && IsWordChar(line[p - 1])) continue;
      std::size_t q = p + 5;
      std::string ident;
      while (q < line.size() && IsWordChar(line[q])) ident.push_back(line[q++]);
      if (StdProvidersFor(ident) != nullptr && seen.insert(ident).second) {
        out->std_uses.push_back({ident, static_cast<int>(i) + 1});
      }
    }
  }
}

void ScanPragmaOnce(const SourceText& f, FileSummary* out) {
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string t = Trimmed(f.code[i]);
    if (t.empty()) continue;
    out->pragma_diag_line = t == "#pragma once" ? 0 : static_cast<int>(i) + 1;
    return;
  }
  out->pragma_diag_line = f.raw.empty() ? 0 : 1;
}

void ScanCodecUse(const SourceText& f, FileSummary* out) {
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    const int lineno = static_cast<int>(i) + 1;
    if (out->codec.first_snapshot == 0 && (HasToken(line, "SnapshotWriter") ||
                                           HasToken(line, "SnapshotReader"))) {
      out->codec.first_snapshot = lineno;
    }
    if (out->codec.first_wal == 0 &&
        (HasToken(line, "WalWriter") || HasToken(line, "WalReader"))) {
      out->codec.first_wal = lineno;
    }
    for (const char* api : {"SealFrame", "OpenFrame", "SealSnapshot",
                            "OpenSnapshot", "SnapshotStatus"}) {
      if (HasToken(line, api)) out->codec.calls_codec = true;
    }
  }
}

// Joins f.code[line..] until parentheses opened on the first line balance
// (bounded lookahead). Returns the joined text.
std::string JoinBalanced(const SourceText& f, std::size_t start,
                         std::size_t open_pos) {
  std::string joined;
  int depth = 0;
  for (std::size_t i = start; i < f.code.size() && i < start + 8; ++i) {
    const std::string& line = f.code[i];
    std::size_t from = i == start ? open_pos : 0;
    joined += line.substr(from);
    for (std::size_t j = from; j < line.size(); ++j) {
      if (line[j] == '(') ++depth;
      if (line[j] == ')' && --depth == 0) return joined;
    }
    joined.push_back(' ');
  }
  return joined;
}

// Legacy unordered-container analysis: declared names (file-wide) and every
// range-for site with its range expression text. Matching happens at
// emission time — against this file's names (v1 behaviour) and against the
// include closure's names (the v2 cross-TU extension).
void ScanUnordered(const SourceText& f, FileSummary* out) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    for (const char* container : {"unordered_map", "unordered_set"}) {
      for (std::size_t p = FindToken(f.code[i], container);
           p != std::string::npos;
           p = FindToken(f.code[i], container, p + 1)) {
        // Only declarations: the token must open a template argument list
        // (skips `#include <unordered_map>` and prose mentions).
        std::size_t cp = p + std::strlen(container);
        cp = f.code[i].find_first_not_of(" \t", cp);
        if (cp == std::string::npos || f.code[i][cp] != '<') continue;
        // Balance the template argument list (may span lines), then take
        // the following identifier as the declared name.
        std::size_t li = i;
        int depth = 0;
        bool done = false;
        std::string name;
        for (; li < f.code.size() && li < i + 8 && !done; ++li, cp = 0) {
          const std::string& l = f.code[li];
          for (std::size_t j = cp; j < l.size(); ++j) {
            if (l[j] == '<') ++depth;
            if (l[j] == '>' && --depth == 0) {
              std::size_t q = l.find_first_not_of(" \t&*", j + 1);
              while (q != std::string::npos && q < l.size() &&
                     IsWordChar(l[q])) {
                name.push_back(l[q]);
                ++q;
              }
              done = true;
              break;
            }
          }
        }
        if (!name.empty() && name != "const") names.insert(name);
      }
    }
  }
  out->unordered_names.assign(names.begin(), names.end());

  for (std::size_t i = 0; i < f.code.size(); ++i) {
    std::size_t p = FindToken(f.code[i], "for");
    if (p == std::string::npos) continue;
    std::size_t open = f.code[i].find('(', p);
    if (open == std::string::npos) continue;
    const std::string body = JoinBalanced(f, i, open);
    // The range-for ':' — skip "::" scope operators.
    std::size_t colon = std::string::npos;
    for (std::size_t j = 1; j + 1 < body.size(); ++j) {
      if (body[j] == ':' && body[j - 1] != ':' && body[j + 1] != ':') {
        colon = j;
        break;
      }
    }
    if (colon == std::string::npos) continue;
    out->iters.push_back(
        {-1, static_cast<int>(i) + 1, body.substr(colon + 1)});
  }
}

// ---------------------------------------------------------------------------
// Token walk: functions, fields, calls, locks.
// ---------------------------------------------------------------------------

struct Token {
  std::string text;
  int line = 0;   // 1-based
  char kind = 0;  // 'i' identifier, 'n' number, 'p' punctuation
};

// Tokenizes the stripped code lines, skipping preprocessor directives and
// their backslash continuations.
std::vector<Token> Tokenize(const SourceText& f) {
  std::vector<Token> out;
  bool continuation = false;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    const std::string trimmed = Trimmed(line);
    const bool raw_ends_backslash =
        !f.raw[i].empty() && f.raw[i].back() == '\\';
    if (continuation || (!trimmed.empty() && trimmed[0] == '#')) {
      continuation = raw_ends_backslash;
      continue;
    }
    continuation = false;
    const int ln = static_cast<int>(i) + 1;
    for (std::size_t j = 0; j < line.size();) {
      const char c = line[j];
      if (c == ' ' || c == '\t') {
        ++j;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
        std::size_t b = j;
        while (j < line.size() && IsWordChar(line[j])) ++j;
        out.push_back({line.substr(b, j - b), ln, 'i'});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        std::size_t b = j;
        while (j < line.size() &&
               (IsWordChar(line[j]) || line[j] == '.' || line[j] == '\'')) {
          ++j;
        }
        out.push_back({line.substr(b, j - b), ln, 'n'});
        continue;
      }
      if (c == '"' || c == '\'') {
        // Literal: the body is blanked; skip to the closing quote.
        std::size_t close = line.find(c, j + 1);
        j = close == std::string::npos ? line.size() : close + 1;
        continue;
      }
      if (c == ':' && j + 1 < line.size() && line[j + 1] == ':') {
        out.push_back({"::", ln, 'p'});
        j += 2;
        continue;
      }
      if (c == '-' && j + 1 < line.size() && line[j + 1] == '>') {
        out.push_back({"->", ln, 'p'});
        j += 2;
        continue;
      }
      out.push_back({std::string(1, c), ln, 'p'});
      ++j;
    }
  }
  return out;
}

const std::set<std::string>& ControlKeywords() {
  static const std::set<std::string> kSet = {
      "if",     "for",    "while",  "switch", "return",   "sizeof",
      "catch",  "throw",  "new",    "delete", "alignof",  "decltype",
      "static_assert", "co_await", "co_return", "co_yield", "defined",
      "alignas", "typeid", "noexcept", "case", "else", "do", "goto"};
  return kSet;
}

struct Scope {
  enum Kind { kNamespace, kClass, kFunction, kBlock } kind;
  std::string name;  // namespace or class name; function: index into out
  int func_index = -1;
};

class Walker {
 public:
  Walker(const std::vector<Token>& tokens, FileSummary* out)
      : toks_(tokens), out_(out) {}

  void Walk() {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (i < skip_to_) continue;
      const Token& t = toks_[i];
      if (t.kind == 'p' && t.text == "{") {
        OnOpenBrace(i);
        continue;
      }
      if (t.kind == 'p' && t.text == "}") {
        OnCloseBrace(t.line);
        buffer_.clear();
        continue;
      }
      if (t.kind == 'p' && t.text == ";") {
        if (AtDeclScope()) ProcessDeclaration();
        buffer_.clear();
        continue;
      }
      if (InFunction()) {
        ScanFunctionToken(i);
      } else {
        buffer_.push_back(i);
      }
    }
    // Close any dangling scopes at EOF.
    const int last_line = toks_.empty() ? 1 : toks_.back().line;
    while (!stack_.empty()) OnCloseBrace(last_line);
  }

 private:
  bool AtDeclScope() const {
    return stack_.empty() || stack_.back().kind == Scope::kNamespace ||
           stack_.back().kind == Scope::kClass;
  }
  bool InFunction() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == Scope::kFunction) return true;
      if (it->kind == Scope::kClass || it->kind == Scope::kNamespace) break;
    }
    return false;
  }
  int CurrentFunc() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == Scope::kFunction) return it->func_index;
    }
    return -1;
  }
  std::string CurrentClass() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == Scope::kClass) return it->name;
    }
    return "";
  }
  std::string QualifiedPrefix() const {
    std::string q;
    for (const Scope& s : stack_) {
      if (s.kind != Scope::kNamespace && s.kind != Scope::kClass) continue;
      if (s.name.empty()) continue;
      if (!q.empty()) q += "::";
      q += s.name;
    }
    return q;
  }

  const Token& Tok(std::size_t buffer_pos) const {
    return toks_[buffer_[buffer_pos]];
  }

  // Removes `template <...>` headers and [[...]] attributes from the
  // buffer view, returning surviving buffer positions.
  std::vector<std::size_t> CleanBuffer() const {
    std::vector<std::size_t> view;
    for (std::size_t i = 0; i < buffer_.size(); ++i) {
      const Token& t = Tok(i);
      if (t.kind == 'i' && t.text == "template" && i + 1 < buffer_.size() &&
          Tok(i + 1).text == "<") {
        int depth = 0;
        ++i;
        for (; i < buffer_.size(); ++i) {
          if (Tok(i).text == "<") ++depth;
          if (Tok(i).text == ">" && --depth == 0) break;
        }
        continue;
      }
      if (t.text == "[" && i + 1 < buffer_.size() && Tok(i + 1).text == "[") {
        int depth = 0;
        for (; i < buffer_.size(); ++i) {
          if (Tok(i).text == "[") ++depth;
          if (Tok(i).text == "]" && --depth == 0) break;
        }
        continue;
      }
      view.push_back(i);
    }
    return view;
  }

  // Finds the parameter-list '(' in the cleaned view: the first top-level
  // '(' preceded by an identifier (or operator token chain) that is not a
  // control keyword. Returns view index or npos.
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  std::size_t FindParamOpen(const std::vector<std::size_t>& view) const {
    int paren = 0;
    int angle = 0;
    for (std::size_t v = 0; v < view.size(); ++v) {
      const Token& t = Tok(view[v]);
      if (t.kind != 'p') continue;
      if (t.text == "(") {
        if (paren == 0 && angle == 0 && v > 0) {
          const Token& prev = Tok(view[v - 1]);
          if (prev.kind == 'i' && ControlKeywords().count(prev.text) == 0) {
            return v;
          }
          // operator overloads: `operator` + punctuation before '('.
          for (std::size_t b = v; b-- > 0;) {
            const Token& bt = Tok(view[b]);
            if (bt.kind == 'i') {
              if (bt.text == "operator") return v;
              break;
            }
            if (bt.kind != 'p' || bt.text == ")" || bt.text == "(") break;
          }
        }
        ++paren;
        continue;
      }
      if (t.text == ")") {
        if (paren > 0) --paren;
        continue;
      }
      if (paren == 0 && t.text == "<") {
        // Template-argument heuristic: '<' after an identifier or '::'.
        if (v > 0 && (Tok(view[v - 1]).kind == 'i' ||
                      Tok(view[v - 1]).text == "::" ||
                      Tok(view[v - 1]).text == ">")) {
          ++angle;
        }
        continue;
      }
      if (paren == 0 && t.text == ">" && angle > 0) {
        --angle;
        continue;
      }
    }
    return kNpos;
  }

  // Extracts the (possibly qualified) name chain ending right before view
  // index `param_open`. Returns false when no usable name exists.
  bool ExtractName(const std::vector<std::size_t>& view,
                   std::size_t param_open, std::string* name,
                   std::string* qualified_tail, std::string* class_hint) {
    std::vector<std::string> parts;  // reversed
    std::size_t v = param_open;
    bool expect_id = true;
    while (v-- > 0) {
      const Token& t = Tok(view[v]);
      if (expect_id) {
        if (t.kind == 'i') {
          std::string piece = t.text;
          // Destructor: a '~' immediately before the identifier.
          if (v > 0 && Tok(view[v - 1]).text == "~") {
            piece = "~" + piece;
            --v;
          }
          parts.push_back(piece);
          expect_id = false;
          continue;
        }
        if (t.kind == 'p' && !parts.empty()) break;
        if (t.kind == 'p') {
          // operator==(...) — name is "operator" + punct chain.
          std::string punct = t.text;
          while (v > 0 && Tok(view[v - 1]).kind == 'p' &&
                 Tok(view[v - 1]).text != ")") {
            punct = Tok(view[v - 1]).text + punct;
            --v;
          }
          if (v > 0 && Tok(view[v - 1]).text == "operator") {
            parts.push_back("operator" + punct);
            --v;
            expect_id = false;
            continue;
          }
          return false;
        }
        return false;
      }
      if (t.kind == 'p' && t.text == "::") {
        expect_id = true;
        continue;
      }
      break;
    }
    if (parts.empty()) return false;
    std::reverse(parts.begin(), parts.end());
    *name = parts.back();
    std::string tail;
    for (const std::string& p : parts) {
      if (!tail.empty()) tail += "::";
      tail += p;
    }
    *qualified_tail = tail;
    *class_hint = parts.size() >= 2 ? parts[parts.size() - 2] : "";
    return true;
  }

  void RecordFunction(const std::vector<std::size_t>& view,
                      std::size_t param_open, bool is_definition,
                      int body_begin_line) {
    std::string name, tail, class_hint;
    if (!ExtractName(view, param_open, &name, &tail, &class_hint)) {
      if (is_definition) stack_.push_back({Scope::kFunction, "", -1});
      return;
    }
    FunctionSym fn;
    fn.name = name;
    fn.class_name = !class_hint.empty() ? class_hint : CurrentClass();
    const std::string prefix = QualifiedPrefix();
    fn.qualified = prefix.empty() ? tail : prefix + "::" + tail;
    fn.line = Tok(view[param_open - 1]).line;
    fn.is_definition = is_definition;
    if (is_definition) fn.body_begin = body_begin_line;
    const int index = static_cast<int>(out_->functions.size());
    out_->functions.push_back(std::move(fn));
    if (is_definition) stack_.push_back({Scope::kFunction, name, index});
  }

  // Decides what an opening brace at token index `i` introduces.
  void OnOpenBrace(std::size_t i) {
    const int line = toks_[i].line;
    if (!AtDeclScope()) {  // inside a function: plain block (or lambda etc.)
      stack_.push_back({Scope::kBlock, "", -1});
      return;
    }
    const std::vector<std::size_t> view = CleanBuffer();
    if (view.empty()) {
      stack_.push_back({Scope::kBlock, "", -1});
      buffer_.clear();
      return;
    }
    const Token& first = Tok(view.front());
    const Token& prev = Tok(view.back());
    if (first.text == "namespace") {
      std::string name;
      for (std::size_t v = 1; v < view.size(); ++v) {
        const Token& t = Tok(view[v]);
        if (t.kind == 'i') {
          if (!name.empty()) name += "::";
          name += t.text;
        } else if (t.text != "::") {
          break;
        }
      }
      stack_.push_back({Scope::kNamespace, name, -1});
      buffer_.clear();
      return;
    }
    if (first.text == "class" || first.text == "struct" ||
        first.text == "union") {
      std::string name;
      for (std::size_t v = 1; v < view.size(); ++v) {
        if (Tok(view[v]).kind == 'i') {
          name = Tok(view[v]).text;
          break;
        }
      }
      stack_.push_back({Scope::kClass, name, -1});
      buffer_.clear();
      return;
    }
    if (first.text == "enum" ||
        (first.text == "extern" && view.size() == 1)) {
      stack_.push_back({Scope::kBlock, "", -1});
      buffer_.clear();
      return;
    }
    // Braced initializers are swallowed into the statement instead of
    // opening a scope: `= {...}`, aggregate members `a_{1}` in ctor init
    // lists, and default member initializers `int v{3};`.
    const bool prev_is_init_punct =
        prev.kind == 'p' && (prev.text == "=" || prev.text == "," ||
                             prev.text == "(" || prev.text == "[");
    bool ctor_init = false;
    bool has_paren = false;
    {
      int depth = 0;
      bool after_params = false;
      for (std::size_t v = 0; v < view.size(); ++v) {
        const Token& t = Tok(view[v]);
        if (t.text == "(") {
          ++depth;
          has_paren = true;
        } else if (t.text == ")") {
          if (--depth == 0) after_params = true;
        } else if (after_params && depth == 0 && t.text == ":") {
          ctor_init = true;
        }
      }
    }
    if (prev_is_init_punct || (prev.kind == 'i' && ctor_init) ||
        (prev.kind == 'i' && !has_paren &&
         (stack_.empty() ? false : stack_.back().kind == Scope::kClass))) {
      SwallowBracedInit(i);
      return;
    }
    const std::size_t param_open = FindParamOpen(view);
    if (param_open != kNpos && param_open > 0) {
      RecordFunction(view, param_open, /*is_definition=*/true, line);
      buffer_.clear();
      return;
    }
    stack_.push_back({Scope::kBlock, "", -1});
    buffer_.clear();
  }

  // Consumes a balanced {...} group, leaving a '}' placeholder so the
  // statement buffer's "previous token" stays coherent.
  void SwallowBracedInit(std::size_t open_index) {
    int depth = 0;
    std::size_t i = open_index;
    for (; i < toks_.size(); ++i) {
      if (toks_[i].text == "{") ++depth;
      if (toks_[i].text == "}" && --depth == 0) break;
    }
    skip_to_ = i + 1;  // the walker loop skips the whole group
    buffer_.push_back(i < toks_.size() ? i : toks_.size() - 1);
  }

  void OnCloseBrace(int line) {
    if (stack_.empty()) return;
    const Scope s = stack_.back();
    stack_.pop_back();
    if (s.kind == Scope::kFunction && s.func_index >= 0) {
      out_->functions[static_cast<std::size_t>(s.func_index)].body_end = line;
    }
  }

  void ProcessDeclaration() {
    const std::vector<std::size_t> view = CleanBuffer();
    if (view.empty()) return;
    const Token& first = Tok(view.front());
    if (first.text == "using" || first.text == "typedef" ||
        first.text == "friend" || first.text == "namespace" ||
        first.text == "static_assert" || first.text == "enum") {
      return;
    }
    // A concurrency annotation marks a field declaration outright —
    // SDS_GUARDED_BY(mu)'s parens would otherwise read as a parameter list.
    bool annotated = false;
    for (std::size_t v = 0; v < view.size() && !annotated; ++v) {
      const Token& t = Tok(view[v]);
      annotated = t.kind == 'i' &&
                  (t.text == "SDS_GUARDED_BY" || t.text == "SDS_SHARD_OWNED");
    }
    // Function declaration? Only when no top-level '=' precedes the
    // parameter list (that would be a variable with a call initializer).
    const std::size_t param_open = annotated ? kNpos : FindParamOpen(view);
    bool eq_before = false;
    if (param_open != kNpos) {
      int paren = 0;
      for (std::size_t v = 0; v < param_open; ++v) {
        const Token& t = Tok(view[v]);
        if (t.text == "(") ++paren;
        if (t.text == ")") --paren;
        if (paren == 0 && t.text == "=") eq_before = true;
      }
    }
    if (param_open != kNpos && param_open > 0 && !eq_before) {
      if (first.text != "class" && first.text != "struct") {
        RecordFunction(view, param_open, /*is_definition=*/false, 0);
      }
      return;
    }
    // Variable / field declaration: record only what the rules care about.
    FieldDecl field;
    field.class_name = CurrentClass();
    std::size_t anno = kNpos;
    for (std::size_t v = 0; v < view.size(); ++v) {
      const Token& t = Tok(view[v]);
      if (t.kind != 'i') continue;
      if (t.text == "SDS_GUARDED_BY" && anno == kNpos) {
        anno = v;
        // Argument: last identifier inside the parens.
        for (std::size_t w = v + 1; w < view.size(); ++w) {
          const Token& a = Tok(view[w]);
          if (a.kind == 'i') field.guarded_by = a.text;
          if (a.text == ")") break;
        }
      } else if (t.text == "SDS_SHARD_OWNED") {
        if (anno == kNpos) anno = v;
        field.shard_owned = true;
      } else if (t.text == "mutex" || t.text == "shared_mutex" ||
                 t.text == "recursive_mutex" || t.text == "timed_mutex") {
        field.is_mutex = true;
      }
    }
    if (!field.is_mutex && field.guarded_by.empty() && !field.shard_owned) {
      return;
    }
    // Name: identifier immediately before the first annotation, else before
    // a top-level '=', else the last identifier.
    std::size_t name_at = kNpos;
    if (anno != kNpos) {
      for (std::size_t v = anno; v-- > 0;) {
        if (Tok(view[v]).kind == 'i') {
          name_at = v;
          break;
        }
      }
    } else {
      int paren = 0;
      std::size_t eq = kNpos;
      for (std::size_t v = 0; v < view.size(); ++v) {
        const Token& t = Tok(view[v]);
        if (t.text == "(") ++paren;
        if (t.text == ")") --paren;
        if (paren == 0 && t.text == "=" && eq == kNpos) eq = v;
      }
      const std::size_t end = eq == kNpos ? view.size() : eq;
      for (std::size_t v = end; v-- > 0;) {
        if (Tok(view[v]).kind == 'i') {
          name_at = v;
          break;
        }
      }
    }
    if (name_at == kNpos) return;
    field.name = Tok(view[name_at]).text;
    field.line = Tok(view[name_at]).line;
    out_->fields.push_back(std::move(field));
  }

  // Inside a function body: record calls and lock operations.
  void ScanFunctionToken(std::size_t i) {
    const Token& t = toks_[i];
    if (t.kind != 'i') return;
    const int func = CurrentFunc();
    // Lock acquisitions through the RAII guards.
    if (t.text == "lock_guard" || t.text == "unique_lock" ||
        t.text == "scoped_lock" || t.text == "shared_lock") {
      LockOp op;
      op.func = func;
      op.line = t.line;
      // Find the '(' of the guard's constructor, then collect the last
      // identifier of each top-level comma segment as a mutex name.
      std::size_t j = i + 1;
      int angle = 0;
      for (; j < toks_.size(); ++j) {
        const std::string& x = toks_[j].text;
        if (x == "<") ++angle;
        else if (x == ">" && angle > 0) --angle;
        else if (x == "(" && angle == 0) break;
        else if (x == ";" || x == "{" || x == "}") return;  // no args
      }
      if (j >= toks_.size()) return;
      int depth = 0;
      std::string last_id;
      for (; j < toks_.size(); ++j) {
        const Token& a = toks_[j];
        if (a.text == "(") {
          ++depth;
          continue;
        }
        if (a.text == ")") {
          if (--depth == 0) break;
          continue;
        }
        if (depth == 1 && a.text == ",") {
          if (!last_id.empty()) op.args.push_back(last_id);
          last_id.clear();
          continue;
        }
        if (depth >= 1 && a.kind == 'i') last_id = a.text;
      }
      if (!last_id.empty()) op.args.push_back(last_id);
      if (!op.args.empty()) out_->locks.push_back(std::move(op));
      return;
    }
    if (t.text == "SDS_ASSERT_HELD") {
      LockOp op;
      op.func = func;
      op.line = t.line;
      op.assert_held = true;
      for (std::size_t j = i + 1; j < toks_.size(); ++j) {
        if (toks_[j].kind == 'i') op.args.push_back(toks_[j].text);
        if (toks_[j].text == ")") break;
      }
      if (!op.args.empty()) out_->locks.push_back(std::move(op));
      return;
    }
    // Calls: identifier directly followed by '('.
    if (i + 1 >= toks_.size() || toks_[i + 1].text != "(") return;
    if (ControlKeywords().count(t.text) != 0) return;
    // `m.lock()` / `m->lock()`: a direct mutex acquisition.
    if ((t.text == "lock" || t.text == "try_lock") && i >= 2 &&
        (toks_[i - 1].text == "." || toks_[i - 1].text == "->") &&
        toks_[i - 2].kind == 'i') {
      out_->locks.push_back({func, t.line, {toks_[i - 2].text}, false});
      return;
    }
    CallSite call;
    call.func = func;
    call.line = t.line;
    call.name = t.text;
    if (i >= 2 && toks_[i - 1].text == "::" && toks_[i - 2].kind == 'i') {
      call.qualifier = toks_[i - 2].text;
    }
    out_->calls.push_back(std::move(call));
  }

  const std::vector<Token>& toks_;
  FileSummary* out_;
  std::vector<Scope> stack_;
  std::vector<std::size_t> buffer_;  // token indices of the open statement
  std::size_t skip_to_ = 0;          // consumed-brace fast-forward marker
};

// Attributes line-anchored facts (sinks, range-for sites) to the innermost
// enclosing function body.
int FunctionAt(const FileSummary& s, int line) {
  int best = -1;
  int best_begin = -1;
  for (std::size_t i = 0; i < s.functions.size(); ++i) {
    const FunctionSym& fn = s.functions[i];
    if (!fn.is_definition || fn.body_begin == 0) continue;
    if (line < fn.body_begin || line > fn.body_end) continue;
    if (fn.body_begin > best_begin) {
      best_begin = fn.body_begin;
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace

const char* StdProvidersFor(const std::string& ident) {
  for (const StdProvider& sp : kStdProviders) {
    if (ident == sp.ident) return sp.providers;
  }
  return nullptr;
}

FileSummary BuildSummary(const SourceText& text, const std::string& layer,
                         bool is_header) {
  FileSummary out;
  out.path = text.path;
  out.layer = layer;
  out.is_header = is_header;
  ParseIncludes(text, &out.includes);
  ParseAllows(text, &out.allows);
  ScanSinks(text, &out);
  ScanVerbCalls(text, &out);
  ScanStdUses(text, &out);
  ScanPragmaOnce(text, &out);
  ScanCodecUse(text, &out);
  ScanUnordered(text, &out);

  const std::vector<Token> tokens = Tokenize(text);
  Walker walker(tokens, &out);
  walker.Walk();

  for (SinkOccur& s : out.sinks) s.func = FunctionAt(out, s.line);
  for (IterSite& it : out.iters) it.func = FunctionAt(out, it.line);
  return out;
}

}  // namespace sdslint
