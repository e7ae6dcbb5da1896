// sdslint CLI: walks the given trees and enforces the project invariants
// documented in DESIGN.md §11 and §16 (layer DAG, determinism contract —
// direct tokens plus interprocedural taint over the cross-TU call graph —
// header hygiene, and the concurrency-discipline annotations).
//
//   sdslint src tests bench tools            lint the whole repo (from root)
//   sdslint --json src                       machine-readable diagnostics
//   sdslint --list-suppressions src          audit every allow() escape hatch
//   sdslint --root=DIR a b                   resolve includes against DIR/src
//   sdslint --ignore=a,b ...                 skip paths containing a or b
//   sdslint --sarif=out.sarif ...            also write SARIF 2.1.0
//   sdslint --stats [--stats-out=f] ...      BENCH_lint JSON run summary
//
// Exit codes: 0 clean, 1 diagnostics emitted, 2 usage error — so CI can
// gate on it directly.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "common/flags.h"
#include "common/reporter.h"
#include "sdslint/lint.h"

namespace {

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << text << '\n';
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  sds::Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"json", "emit diagnostics as one JSON object instead of text",
            true},
           {"list-suppressions",
            "list every allow(...) suppression comment (and whether it "
            "fired) instead of linting",
            true},
           {"root",
            "directory containing src/ for include resolution (default: .)"},
           {"ignore",
            "extra comma-separated path substrings to skip (always skips "
            "build/ and tests/lint/fixtures)"},
           {"sarif", "also write diagnostics as SARIF 2.1.0 to this file"},
           {"stats",
            "print a BENCH_lint JSON run summary (rule hits, taint graph "
            "size)",
            true},
           {"stats-out", "also write the stats JSON payload to this file"}})) {
    return flags.help_requested() ? 0 : 2;
  }
  if (flags.positional().empty()) {
    std::fprintf(
        stderr,
        "usage: sdslint [--json] [--list-suppressions] [--root=DIR] "
        "[--ignore=SUBSTR,...] [--sarif=FILE] [--stats] "
        "[--stats-out=FILE] <path>...\n");
    return 2;
  }

  sdslint::Options options;
  options.paths = flags.positional();
  options.include_root = flags.GetString("root", ".");
  // The lint fixture trees seed deliberate violations for sdslint's own
  // tests; generated build trees are not ours to lint.
  options.ignores = {"build/", "tests/lint/fixtures"};
  const std::string extra = flags.GetString("ignore", "");
  for (std::size_t b = 0; b < extra.size();) {
    std::size_t e = extra.find(',', b);
    if (e == std::string::npos) e = extra.size();
    if (e > b) options.ignores.push_back(extra.substr(b, e - b));
    b = e + 1;
  }

  const sdslint::Result result = sdslint::Run(options);

  const std::string sarif_path = flags.GetString("sarif", "");
  if (!sarif_path.empty() &&
      !WriteTextFile(sarif_path,
                     sdslint::ToSarif(result, options.include_root))) {
    std::fprintf(stderr, "sdslint: cannot write SARIF file %s\n",
                 sarif_path.c_str());
    return 2;
  }

  if (flags.GetBool("list-suppressions", false)) {
    for (const sdslint::Suppression& s : result.suppressions) {
      std::printf("%s:%d: allow(%s) -> line %d [%s]\n", s.file.c_str(),
                  s.comment_line, s.rules.c_str(), s.line,
                  s.used ? "used" : "UNUSED");
    }
    std::printf("%zu suppression(s) in %d file(s)\n",
                result.suppressions.size(), result.files_scanned);
    return 0;
  }

  int exit_code;
  if (flags.GetBool("json", false)) {
    std::printf("%s\n", sdslint::ToJson(result).c_str());
    exit_code = result.diagnostics.empty() ? 0 : 1;
  } else {
    for (const sdslint::Diagnostic& d : result.diagnostics) {
      std::printf("%s\n", sdslint::FormatText(d).c_str());
    }
    if (result.diagnostics.empty()) {
      std::fprintf(stderr, "sdslint: %d file(s) clean\n", result.files_scanned);
      exit_code = 0;
    } else {
      std::fprintf(stderr, "sdslint: %zu finding(s) in %d file(s)\n",
                   result.diagnostics.size(), result.files_scanned);
      exit_code = 1;
    }
  }

  if (flags.GetBool("stats", false)) {
    const std::string payload = sdslint::StatsJson(result);
    sds::bench::EmitBenchJson(std::cout, "lint",
                              flags.GetString("stats-out", ""),
                              [&payload](std::ostream& os) { os << payload; });
  }
  return exit_code;
}
