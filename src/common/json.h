// JSON text helpers shared by every writer and reader of this repo's JSON:
// one string escaper for the emitters (telemetry's Perfetto export, sdslint's
// --json / SARIF / --stats output) and one reader for the flat
// one-object-per-line JSONL streams tools/inspect summarizes.
//
// The reader handles exactly the JSON this repo emits — string, number and
// bool values, arrays, and one level of nested object — and is not a general
// JSON parser. It never throws or crashes on malformed input: a line it
// cannot read makes ParseJsonLine return false.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sds {

// Escapes a string for embedding inside a JSON string literal: quotes,
// backslashes and every control character below 0x20 (\n, \t and \r by
// name, the rest as \u00XX). A null pointer escapes to the empty string.
std::string JsonEscape(std::string_view s);
std::string JsonEscape(const char* s);

// One parsed JSONL line: flat key -> raw value text. String values have
// their quotes stripped (escapes are NOT decoded); arrays and nested objects
// are kept verbatim, brackets included.
using JsonObject = std::map<std::string, std::string>;

// Parses one `{"key":value,...}` line into `out` (cleared first). Returns
// false when the line is not a well-formed object of the supported shape. A
// nested object value ("rule_hits":{...}) can itself be read with
// ParseJsonLine.
bool ParseJsonLine(const std::string& line, JsonObject& out);

// The value of `key` as a number, or `fallback` if absent or unparseable.
double NumOr(const JsonObject& o, const std::string& key, double fallback);

// The raw value text of `key`, or `fallback` if absent.
std::string StrOr(const JsonObject& o, const std::string& key,
                  const std::string& fallback);

// Parses an "[{...},{...}]" array of FLAT objects (as ParseJsonLine keeps
// them verbatim — the forensic "suspects" field). Damaged elements are
// skipped.
std::vector<JsonObject> ParseObjectArray(const std::string& raw);

}  // namespace sds
