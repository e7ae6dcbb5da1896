// Raw-text handling for sdslint: file loading, comment/string stripping and
// the include / allow(...) comment parsers. Shared by the symbol pass
// (symbols.cpp) and the concurrency pass (conc.cpp re-reads only the files
// that define annotated classes).
#pragma once

#include <string>
#include <vector>

#include "sdslint/model.h"

namespace sdslint {

// A loaded file with comments and string bodies blanked out, line by line.
struct SourceText {
  std::string path;
  std::vector<std::string> raw;      // raw lines, 0-based
  std::vector<std::string> code;     // comments and string bodies blanked
  std::vector<std::string> strings;  // per line: concatenated literal bodies
};

// Reads `path`; returns false when the file cannot be opened. CRLF-tolerant.
bool LoadSource(const std::string& path, SourceText* out);

std::string Trimmed(const std::string& s);

// Finds `token` in `line` with word boundaries on its alphanumeric ends;
// npos when absent.
std::size_t FindToken(const std::string& line, const std::string& token,
                      std::size_t from = 0);
bool HasToken(const std::string& line, const std::string& token);

// Parses the `#include` directives and the allow(...) suppressions of a
// loaded file. A suppression is a `//` comment whose text starts with
// `sdslint:`; on a comment-only line it silences the next line, as a
// trailing comment its own line.
void ParseIncludes(const SourceText& text, std::vector<IncludeDirective>* out);
void ParseAllows(const SourceText& text, std::vector<AllowComment>* out);

}  // namespace sdslint
