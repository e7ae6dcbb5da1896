// Figure 12: performance overhead on applications running on co-located VMs.
//
// For every application and every detection scheme, a protected VM is
// monitored while a co-located VM runs the same application to a fixed
// amount of work; no attack is launched. The normalized execution time
// (relative to running with no detection scheme) is the figure's metric.
// Baselines are computed once per (application, seed) and shared across
// schemes; each application's runs x (baseline + schemes) grid runs in
// parallel.
#include <iostream>

#include "common/bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "eval/aggregate.h"
#include "eval/report.h"
#include "workloads/catalog.h"

int main(int argc, char** argv) {
  using namespace sds;
  Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"runs", "seeded runs per app x scheme (default 5)"},
           {"work-units", "victim work units to complete (default 2000)"},
           {"seed", "base simulation seed (default 51)"}})) {
    return flags.help_requested() ? 0 : 1;
  }
  const int runs = static_cast<int>(flags.GetInt("runs", 5));
  const auto work =
      static_cast<std::uint64_t>(flags.GetInt("work-units", 2000));
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
  for (const auto& info : workloads::AppCatalog()) {
    eval::OverheadRunConfig cfg;
    cfg.app = info.name;
    cfg.work_target_units = work;
    const auto aggs = eval::AggregateOverhead(cfg, schemes, runs, seed, threads);
    std::vector<std::string> row = {info.name};
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      const double median = aggs[s].normalized_time.median;
      row.push_back(FormatFixed(median, 3));
      if (schemes[s] == eval::Scheme::kSds) sds_total += median;
      if (schemes[s] == eval::Scheme::kKsTest) ks_total += median;
    }
    table.AddRow(row);
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
               "identification sweeps.\n";
  return 0;
}
