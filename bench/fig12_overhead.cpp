// Figure 12: performance overhead on applications running on co-located VMs.
//
// For every application and every detection scheme, a protected VM is
// monitored while a co-located VM runs the same application to a fixed
// amount of work; no attack is launched. The normalized execution time
// (relative to running with no detection scheme) is the figure's metric.
// Baselines are computed once per (application, seed) and shared across
// schemes; each application's runs x (baseline + schemes) grid runs in
// parallel.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/reporter.h"
#include "eval/aggregate.h"
#include "eval/report.h"
#include "workloads/catalog.h"

namespace {

using namespace sds;

struct OverheadRow {
  std::string app;
  eval::Scheme scheme = eval::Scheme::kSds;
  eval::AggregatedOverhead agg;
};

// The BENCH_fig12 payload: one object per application x scheme with the
// normalized execution time summary.
void WriteOverheadJson(std::ostream& os, int runs, std::uint64_t work,
                       std::uint64_t seed,
                       const std::vector<OverheadRow>& rows) {
  os << "{\"bench\":\"fig12\",\"runs\":" << runs
     << ",\"work_units\":" << work << ",\"base_seed\":" << seed
     << ",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << (i > 0 ? "," : "") << "{\"app\":\"" << rows[i].app
       << "\",\"scheme\":\"" << eval::SchemeName(rows[i].scheme)
       << "\",\"runs\":" << rows[i].agg.runs << ",\"normalized_time\":";
    eval::WriteSummaryJson(os, rows[i].agg.normalized_time);
    os << "}";
  }
  os << "]}";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"runs", "seeded runs per app x scheme (default 5)"},
           {"work-units", "victim work units to complete (default 2000)"},
           {"seed", "base simulation seed (default 51)"},
           {"json_out", "also write the BENCH_fig12 JSON to this file"}})) {
    return flags.help_requested() ? 0 : 1;
  }
  const long long runs_flag = flags.GetInt("runs", 5);
  const long long work_flag = flags.GetInt("work-units", 2000);
  if (!bench::SweepFlagsValid(argv[0], runs_flag, {})) return 1;
  if (work_flag < 1) {
    std::fprintf(stderr, "%s: --work-units=%lld: work target must be "
                 "positive\n", argv[0], work_flag);
    return 1;
  }
  const auto runs = static_cast<int>(runs_flag);
  const auto work = static_cast<std::uint64_t>(work_flag);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 51));

  bench::PrintBenchHeader(
      std::cout, "bench_fig12_overhead",
      "Figure 12: normalized execution time of a co-located application "
      "under each detection scheme (no attack running)");

  TextTable table;
  table.SetHeader({"application", "SDS", "SDS/B", "SDS/P", "KStest"});

  double sds_total = 0.0;
  double ks_total = 0.0;
  int apps = 0;

  const std::vector<eval::Scheme> schemes = {
      eval::Scheme::kSds, eval::Scheme::kSdsB, eval::Scheme::kSdsP,
      eval::Scheme::kKsTest};
  const int threads = eval::DefaultThreads();
  std::vector<OverheadRow> rows;
  for (const auto& info : workloads::AppCatalog()) {
    eval::OverheadRunConfig cfg;
    cfg.app = info.name;
    cfg.work_target_units = work;
    const auto aggs = eval::AggregateOverhead(cfg, schemes, runs, seed, threads);
    std::vector<std::string> line = {info.name};
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      const double median = aggs[s].normalized_time.median;
      line.push_back(FormatFixed(median, 3));
      if (schemes[s] == eval::Scheme::kSds) sds_total += median;
      if (schemes[s] == eval::Scheme::kKsTest) ks_total += median;
      rows.push_back({info.name, schemes[s], aggs[s]});
    }
    table.AddRow(line);
    ++apps;
    std::cout << "." << std::flush;
  }
  std::cout << "\n\nnormalized execution time (median of " << runs
            << " paired runs; 1.000 = no overhead):\n\n";
  table.Print(std::cout);
  std::cout << "\nmean overhead: SDS "
            << FormatFixed((sds_total / apps - 1.0) * 100.0, 1)
            << "%  vs  KStest "
            << FormatFixed((ks_total / apps - 1.0) * 100.0, 1)
            << "%\nShape check (paper): SDS (and SDS/B, SDS/P) 1-2%; KStest "
               "3-8% due to throttled reference collection and the "
               "identification sweeps.\n\n";
  if (!bench::EmitBenchJson(std::cout, "fig12",
                            flags.GetString("json_out", ""),
                            [&](std::ostream& os) {
                              WriteOverheadJson(os, runs, work, seed, rows);
                            })) {
    return 1;
  }
  return 0;
}
