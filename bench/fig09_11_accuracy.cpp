// Figures 9 (recall), 10 (specificity) and 11 (detection delay): SDS vs
// KStest, plus SDS/B and SDS/P for the periodic applications, per application,
// for both attacks. The three figures are views of one sweep, which runs once
// as a single cells x runs grid.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/reporter.h"
#include "eval/aggregate.h"
#include "eval/report.h"
#include "telemetry/telemetry.h"
#include "workloads/catalog.h"

namespace {

using namespace sds;

constexpr eval::AttackKind kAttacks[] = {eval::AttackKind::kBusLock,
                                         eval::AttackKind::kLlcCleansing};

struct SweepOptions {
  int runs = 3;
  Tick profile_ticks = 12000;
  Tick clean_ticks = 15000;
  Tick attack_ticks = 15000;
  std::uint64_t base_seed = 1000;
  // When non-empty, one representative instrumented SDS run is executed after
  // the sweep and its telemetry stream (events + detector audit + metrics) is
  // written here as JSONL for tools/inspect.
  std::string telemetry_out;
};

SweepOptions SweepOptionsFromFlags(const Flags& flags) {
  SweepOptions options;
  options.runs = static_cast<int>(flags.GetInt("runs", options.runs));
  const TickClock clock;
  if (flags.Has("stage-seconds")) {
    const Tick t = clock.ToTicks(flags.GetDouble("stage-seconds", 150.0));
    options.clean_ticks = t;
    options.attack_ticks = t;
  }
  if (flags.Has("profile-seconds")) {
    options.profile_ticks =
        clock.ToTicks(flags.GetDouble("profile-seconds", 120.0));
  }
  options.base_seed = static_cast<std::uint64_t>(
      flags.GetInt("seed", static_cast<long long>(options.base_seed)));
  options.telemetry_out = flags.GetString("telemetry_out", "");
  return options;
}

// Rejects stages that cannot run: every stage must hold at least one tick,
// and the profile enough samples for two EWMA values (window + step ticks).
// Names the flag on stderr.
bool StagesValid(const char* program, const Flags& flags,
                 const SweepOptions& options) {
  if (options.clean_ticks <= 0) {
    std::fprintf(stderr, "%s: --stage-seconds=%s: stages must be at least "
                 "one tick long\n", program,
                 flags.GetString("stage-seconds", "").c_str());
    return false;
  }
  const detect::DetectorParams params;
  const auto min_profile = static_cast<Tick>(params.window + params.step);
  if (options.profile_ticks < min_profile) {
    std::fprintf(stderr, "%s: --profile-seconds=%s: the profile needs at "
                 "least %g s (window + step)\n", program,
                 flags.GetString("profile-seconds", "").c_str(),
                 TickClock().ToSeconds(min_profile));
    return false;
  }
  return true;
}

// Runs one fully instrumented SDS detection run (kmeans vs. bus locking) with
// a telemetry handle attached and writes the JSONL stream to
// options.telemetry_out. No-op when the path is empty.
void MaybeEmitTelemetryRun(const SweepOptions& options, std::ostream& log) {
  if (options.telemetry_out.empty()) return;
  // Single-threaded, so attaching the telemetry handle to the machine config
  // is safe.
  telemetry::Telemetry telemetry;
  eval::DetectionRunConfig cfg;
  cfg.app = "kmeans";
  cfg.attack = eval::AttackKind::kBusLock;
  cfg.scheme = eval::Scheme::kSds;
  cfg.profile_ticks = options.profile_ticks;
  cfg.clean_ticks = options.clean_ticks;
  cfg.attack_ticks = options.attack_ticks;
  cfg.scenario.machine.telemetry = &telemetry;
  const auto result = eval::RunDetectionRun(cfg, options.base_seed);
  if (!telemetry.WriteJsonlFile(options.telemetry_out)) {
    log << "telemetry: cannot write " << options.telemetry_out << "\n";
    return;
  }
  log << "telemetry: wrote " << options.telemetry_out << " ("
      << telemetry.tracer().emitted() << " events, "
      << telemetry.audit().records().size() << " audit records; run "
      << (result.detected ? "detected" : "missed")
      << " the attack); inspect with tools/inspect\n";
}

struct AccuracyRow {
  std::string app;
  eval::AttackKind attack = eval::AttackKind::kBusLock;
  eval::Scheme scheme = eval::Scheme::kSds;
  eval::AggregatedDetection agg;
};

// All 10 applications x {bus-lock, llc-cleansing} x {SDS, KStest}, plus
// SDS/B and SDS/P for the periodic applications (PCA, FaceNet).
std::vector<AccuracyRow> RunAccuracySweep(const SweepOptions& options,
                                          std::ostream& log) {
  std::vector<AccuracyRow> rows;
  std::vector<eval::DetectionRunConfig> cells;
  for (const auto& info : workloads::AppCatalog()) {
    std::vector<eval::Scheme> schemes = {eval::Scheme::kSds,
                                         eval::Scheme::kKsTest};
    if (info.periodic) {
      schemes.push_back(eval::Scheme::kSdsB);
      schemes.push_back(eval::Scheme::kSdsP);
    }
    for (eval::AttackKind attack : kAttacks) {
      for (eval::Scheme scheme : schemes) {
        eval::DetectionRunConfig cfg;
        cfg.app = info.name;
        cfg.attack = attack;
        cfg.scheme = scheme;
        cfg.profile_ticks = options.profile_ticks;
        cfg.clean_ticks = options.clean_ticks;
        cfg.attack_ticks = options.attack_ticks;
        cells.push_back(cfg);
        rows.push_back({info.name, attack, scheme, {}});
      }
    }
  }

  log << "running accuracy sweep: " << cells.size() << " configurations x "
      << options.runs << " runs, stages "
      << TickClock().ToSeconds(options.clean_ticks) << "s + "
      << TickClock().ToSeconds(options.attack_ticks) << "s\n\n";
  log.flush();
  const auto aggs = eval::AggregateDetection(
      cells, options.runs, options.base_seed, eval::DefaultThreads());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i].agg = aggs[i];
  return rows;
}

// Prints one figure's (a) bus-locking and (b) LLC-cleansing tables. The
// caption reads "Figure <figure>(a): <lead><attack name><tail>".
template <typename CellsFn>
void PrintFigure(const std::vector<AccuracyRow>& rows, int figure,
                 const std::string& lead, const std::string& tail,
                 const std::vector<std::string>& header,
                 const CellsFn& cells) {
  for (eval::AttackKind attack : kAttacks) {
    std::cout << "Figure " << figure << '('
              << (attack == eval::AttackKind::kBusLock ? 'a' : 'b')
              << "): " << lead << eval::AttackName(attack) << tail << "\n\n";
    TextTable table;
    table.SetHeader(header);
    for (const auto& row : rows) {
      if (row.attack != attack) continue;
      std::vector<std::string> line = {row.app, eval::SchemeName(row.scheme)};
      for (std::string& cell : cells(row.agg)) line.push_back(std::move(cell));
      table.AddRow(std::move(line));
    }
    table.Print(std::cout);
    std::cout << '\n';
  }
}

// scale * mean over both attacks of `scheme`'s median `metric`, summed in
// figure order (all bus-locking rows, then all LLC-cleansing rows). A row
// with no detected run has no delay, so the delay mean leaves it out (NaN
// when no row has one).
double MeanMedian(const std::vector<AccuracyRow>& rows, eval::Scheme scheme,
                  PercentileSummary eval::AggregatedDetection::*metric,
                  double scale = 1.0) {
  double sum = 0.0;
  int n = 0;
  for (eval::AttackKind attack : kAttacks) {
    for (const auto& row : rows) {
      if (row.attack != attack || row.scheme != scheme) continue;
      if (metric == &eval::AggregatedDetection::delay_seconds &&
          row.agg.detected_runs == 0) {
        continue;
      }
      sum += (row.agg.*metric).median;
      ++n;
    }
  }
  return n == 0 ? std::nan("") : scale * sum / n;
}

// The BENCH_fig09_11 payload: the sweep's stage lengths, then one object per
// table row. A row with no detected run carries no delay.
void WriteAccuracyJson(std::ostream& os, const SweepOptions& options,
                       const std::vector<AccuracyRow>& rows) {
  os << "{\"bench\":\"fig09_11\",\"runs\":" << options.runs
     << ",\"base_seed\":" << options.base_seed
     << ",\"profile_ticks\":" << options.profile_ticks
     << ",\"clean_ticks\":" << options.clean_ticks
     << ",\"attack_ticks\":" << options.attack_ticks << ",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AccuracyRow& row = rows[i];
    os << (i > 0 ? "," : "") << "{\"app\":\"" << row.app
       << "\",\"attack\":\"" << eval::AttackName(row.attack)
       << "\",\"scheme\":\"" << eval::SchemeName(row.scheme)
       << "\",\"runs\":" << row.agg.runs
       << ",\"detected_runs\":" << row.agg.detected_runs << ",\"recall\":";
    eval::WriteSummaryJson(os, row.agg.recall);
    os << ",\"specificity\":";
    eval::WriteSummaryJson(os, row.agg.specificity);
    if (row.agg.detected_runs > 0) {
      os << ",\"delay_s\":";
      eval::WriteSummaryJson(os, row.agg.delay_seconds);
    }
    os << "}";
  }
  os << "]}";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"runs", "seeded runs per app x attack x scheme configuration"},
           {"stage-seconds", "clean and attack stage length in virtual seconds"},
           {"profile-seconds", "profiling stage length in virtual seconds"},
           {"seed", "base seed for the run-index seed sequence"},
           {"telemetry_out",
            "write one instrumented run's telemetry JSONL to this path"},
           {"json_out", "also write the BENCH_fig09_11 JSON to this file"}})) {
    return flags.help_requested() ? 0 : 1;
  }
  const SweepOptions options = SweepOptionsFromFlags(flags);
  if (!bench::SweepFlagsValid(argv[0], flags.GetInt("runs", options.runs),
                              {}) ||
      !StagesValid(argv[0], flags, options)) {
    return 1;
  }

  bench::PrintBenchHeader(
      std::cout, "bench_fig09_11_accuracy",
      "Figures 9 (recall), 10 (specificity) and 11 (detection delay), each "
      "(a: bus locking, b: LLC cleansing): median with 10th/90th percentile "
      "bars over seeded runs");

  const auto rows = RunAccuracySweep(options, std::cout);
  MaybeEmitTelemetryRun(options, std::cout);
  using eval::AggregatedDetection;

  PrintFigure(rows, 9, "recall under the ", " attack",
              {"application", "scheme", "recall med [p10, p90]",
               "detected runs"},
              [](const AggregatedDetection& agg) {
                return std::vector<std::string>{
                    eval::FormatSummary(agg.recall, 2),
                    TextTable::Str(agg.detected_runs) + "/" +
                        TextTable::Str(agg.runs)};
              });
  std::cout << "Shape check (paper): median recall 100% for every scheme "
               "and application;\nSDS marginally better than KStest at the "
               "percentile tails.\n\n";

  PrintFigure(rows, 10, "specificity during the attack-free stage (",
              " experiment)",
              {"application", "scheme", "specificity med [p10, p90]"},
              [](const AggregatedDetection& agg) {
                return std::vector<std::string>{
                    eval::FormatSummary(agg.specificity, 2)};
              });
  std::cout << "mean median specificity: SDS "
            << FormatFixed(MeanMedian(rows, eval::Scheme::kSds,
                                      &AggregatedDetection::specificity, 100.0),
                           1)
            << "%  vs  KStest "
            << FormatFixed(MeanMedian(rows, eval::Scheme::kKsTest,
                                      &AggregatedDetection::specificity, 100.0),
                           1)
            << "%\nShape check (paper): SDS 90-100%, KStest only 30-80% — "
               "SDS up to 65% higher.\n\n";

  PrintFigure(rows, 11, "detection delay under the ", " attack (seconds)",
              {"application", "scheme", "delay (s) med [p10, p90]"},
              [](const AggregatedDetection& agg) {
                return std::vector<std::string>{
                    agg.detected_runs > 0
                        ? eval::FormatSummary(agg.delay_seconds, 1)
                        : "-"};
              });
  const double sds_mean = MeanMedian(rows, eval::Scheme::kSds,
                                     &AggregatedDetection::delay_seconds);
  const double ks_mean = MeanMedian(rows, eval::Scheme::kKsTest,
                                    &AggregatedDetection::delay_seconds);
  const auto seconds = [](double mean) {
    return std::isnan(mean) ? std::string("-") : FormatFixed(mean, 1) + "s";
  };
  std::cout << "mean median delay: SDS " << seconds(sds_mean)
            << "  vs  KStest " << seconds(ks_mean) << " ("
            << (std::isnan(sds_mean) || std::isnan(ks_mean)
                    ? std::string("-")
                    : FormatFixed(100.0 * (ks_mean - sds_mean) / ks_mean, 0))
            << "% shorter)\nShape check (paper): SDS 15-30 s, KStest "
               "20-50 s — SDS 5-40% shorter; SDS/P ~10 s slower than "
               "SDS/B on the periodic applications.\n\n";
  if (!bench::EmitBenchJson(std::cout, "fig09_11",
                            flags.GetString("json_out", ""),
                            [&](std::ostream& os) {
                              WriteAccuracyJson(os, options, rows);
                            })) {
    return 1;
  }
  return 0;
}
