// Attribution accuracy sweep over the attack x workload grid.
//
// Every cell runs with the hardware attribution ledger enabled and scores
// the forensics engine against the simulator's ground truth: which VM
// actually ran the attack program. The grid covers both attack programs on
// each application, a quiet (no-attack) cell per application where the
// engine must decline to attribute, one colluding two-attacker cell, and
// one cell driven by the real KStest baseline so the ledger's verdict is
// scored against the throttling-derived culprit. Emits the
// `BENCH_attrib {json}` line.
//
// The exit code enforces accuracy: the true attacker must be the rank-1
// suspect on >= 90% of single-attacker cells. Determinism is checked by the
// `ctest -L sweeps` pin, whose golden payload carries the FNV fingerprint of
// every scored field.
//
// No counterpart figure in the paper: section V identifies the culprit by
// throttling candidates one at a time; this extends the evaluation to
// zero-perturbation attribution from hardware evidence alone.
#include <fstream>
#include <iostream>
#include <string>

#include "common/bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/reporter.h"
#include "eval/attribution_sweep.h"

int main(int argc, char** argv) {
  using namespace sds;

  Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"seed", "base seed for the grid (default 9100)"},
           {"json_out", "also write the BENCH_attrib JSON to this file"},
           {"forensics_out",
            "write every cell's forensic report as JSONL here (the stream "
            "tools/inspect --forensics summarizes)"}})) {
    return flags.help_requested() ? 0 : 1;
  }

  eval::AttributionSweepConfig config;
  config.base_seed = static_cast<std::uint64_t>(flags.GetInt("seed", 9100));

  bench::PrintBenchHeader(
      std::cout, "bench_attrib_sweep",
      "Attribution extension (no paper counterpart): forensic suspect "
      "ranking from the hardware interference ledger vs ground truth");

  std::cout << "run 1:\n";
  const eval::AttributionSweepResult result =
      eval::RunAttributionSweep(config, &std::cout);

  std::cout << "\nrank1_fraction=" << FormatFixed(result.rank1_fraction, 3)
            << " precision=" << FormatFixed(result.precision, 3)
            << " recall=" << FormatFixed(result.recall, 3)
            << " mean_rank_of_true="
            << FormatFixed(result.mean_rank_of_true, 2)
            << " (tp=" << result.true_positives
            << " fp=" << result.false_positives
            << " fn=" << result.false_negatives << ")\n";

  std::cout << "\nShape check: every single-attacker cell ranks the true "
               "attacker first; quiet\ncells stay unattributed; the "
               "colluding cell names one of the two attackers;\nthe KStest "
               "cell's ledger verdict agrees with the throttling sweep.\n\n";

  const std::string forensics_out = flags.GetString("forensics_out", "");
  if (!forensics_out.empty()) {
    std::ofstream os(forensics_out);
    if (!os) {
      std::cerr << "cannot write " << forensics_out << "\n";
      return 1;
    }
    for (const eval::AttributionCell& cell : result.cells) {
      detect::WriteForensicReportJson(os, cell.report);
      os << '\n';
    }
    std::cout << "forensic reports written to " << forensics_out << " ("
              << result.cells.size() << " incidents)\n";
  }

  if (!bench::EmitBenchJson(std::cout, "attrib",
                            flags.GetString("json_out", ""),
                            [&](std::ostream& os) {
                              eval::WriteAttributionJson(os, config, result);
                            })) {
    return 1;
  }

  if (result.rank1_fraction < 0.9) {
    std::cerr << "FAIL: rank-1 attribution on "
              << FormatFixed(result.rank1_fraction * 100.0, 1)
              << "% of single-attacker cells (need >= 90%)\n";
    return 1;
  }
  return 0;
}
