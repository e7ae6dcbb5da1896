#include "common/bench_common.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/types.h"
#include "eval/report.h"
#include "telemetry/telemetry.h"
#include "workloads/catalog.h"

namespace sds::bench {
namespace {

constexpr int kCacheVersion = 3;

std::string CachePath(const SweepOptions& o) {
  std::ostringstream os;
  os << ".sds_cache/accuracy_v" << kCacheVersion << "_r" << o.runs << "_p"
     << o.profile_ticks << "_c" << o.clean_ticks << "_a" << o.attack_ticks
     << "_s" << o.base_seed << ".txt";
  return os.str();
}

const char* AttackKey(eval::AttackKind a) {
  return a == eval::AttackKind::kBusLock ? "bus" : "cleanse";
}

int SchemeKey(eval::Scheme s) { return static_cast<int>(s); }

void WriteCache(const std::string& path,
                const std::vector<AccuracyRow>& rows) {
  std::filesystem::create_directories(".sds_cache");
  std::ofstream out(path);
  for (const auto& r : rows) {
    out << r.app << ' ' << AttackKey(r.attack) << ' ' << SchemeKey(r.scheme)
        << ' ' << r.agg.runs << ' ' << r.agg.detected_runs << ' '
        << r.agg.recall.p10 << ' ' << r.agg.recall.median << ' '
        << r.agg.recall.p90 << ' ' << r.agg.specificity.p10 << ' '
        << r.agg.specificity.median << ' ' << r.agg.specificity.p90 << ' '
        << r.agg.delay_seconds.p10 << ' ' << r.agg.delay_seconds.median << ' '
        << r.agg.delay_seconds.p90 << '\n';
  }
}

bool LoadCache(const std::string& path, std::vector<AccuracyRow>& rows) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream is(line);
    AccuracyRow r;
    std::string attack;
    int scheme = 0;
    if (!(is >> r.app >> attack >> scheme >> r.agg.runs >>
          r.agg.detected_runs >> r.agg.recall.p10 >> r.agg.recall.median >>
          r.agg.recall.p90 >> r.agg.specificity.p10 >>
          r.agg.specificity.median >> r.agg.specificity.p90 >>
          r.agg.delay_seconds.p10 >> r.agg.delay_seconds.median >>
          r.agg.delay_seconds.p90)) {
      return false;
    }
    r.attack = attack == "bus" ? eval::AttackKind::kBusLock
                               : eval::AttackKind::kLlcCleansing;
    r.scheme = static_cast<eval::Scheme>(scheme);
    rows.push_back(r);
  }
  return !rows.empty();
}

}  // namespace

bool ParseSweepFlags(int argc, char** argv, SweepOptions& options) {
  Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"runs", "seeded runs per app x attack x scheme configuration"},
           {"stage-seconds", "clean and attack stage length in virtual seconds"},
           {"profile-seconds", "profiling stage length in virtual seconds"},
           {"seed", "base seed for the run-index seed sequence"},
           {"telemetry_out",
            "write one instrumented run's telemetry JSONL to this path"}})) {
    options.help = flags.help_requested();
    return false;
  }
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
  return true;
}

void MaybeEmitTelemetryRun(const SweepOptions& options, std::ostream& log) {
  if (options.telemetry_out.empty()) return;
  // One representative run with every layer instrumented: kmeans under the
  // bus-locking attack, combined SDS. Single-threaded, so attaching the
  // telemetry handle to the machine config is safe.
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

std::vector<AccuracyRow> RunOrLoadAccuracySweep(const SweepOptions& options,
                                                std::ostream& log) {
  const std::string path = CachePath(options);
  std::vector<AccuracyRow> rows;
  if (LoadCache(path, rows)) {
    log << "(reusing sweep results from " << path
        << "; delete the file to recompute)\n\n";
    return rows;
  }

  log << "running accuracy sweep: " << options.runs
      << " runs per configuration, stages "
      << TickClock().ToSeconds(options.clean_ticks) << "s + "
      << TickClock().ToSeconds(options.attack_ticks)
      << "s (this is the expensive step; figures 9-11 share it via "
      << path << ")\n";

  const auto schemes_for = [](const workloads::AppInfo& info) {
    std::vector<eval::Scheme> schemes = {eval::Scheme::kSds,
                                         eval::Scheme::kKsTest};
    if (info.periodic) {
      schemes.push_back(eval::Scheme::kSdsB);
      schemes.push_back(eval::Scheme::kSdsP);
    }
    return schemes;
  };

  const int threads = eval::DefaultThreads();
  for (const auto& info : workloads::AppCatalog()) {
    for (eval::AttackKind attack :
         {eval::AttackKind::kBusLock, eval::AttackKind::kLlcCleansing}) {
      for (eval::Scheme scheme : schemes_for(info)) {
        eval::DetectionRunConfig cfg;
        cfg.app = info.name;
        cfg.attack = attack;
        cfg.scheme = scheme;
        cfg.profile_ticks = options.profile_ticks;
        cfg.clean_ticks = options.clean_ticks;
        cfg.attack_ticks = options.attack_ticks;
        AccuracyRow row;
        row.app = info.name;
        row.attack = attack;
        row.scheme = scheme;
        row.agg = eval::AggregateDetection(cfg, options.runs,
                                           options.base_seed, threads);
        rows.push_back(row);
        log << "  " << info.name << " / " << eval::AttackName(attack) << " / "
            << eval::SchemeName(scheme)
            << ": recall=" << row.agg.recall.median
            << " spec=" << row.agg.specificity.median
            << " delay=" << row.agg.delay_seconds.median << "s\n";
        log.flush();
      }
    }
  }
  WriteCache(path, rows);
  log << "\n";
  return rows;
}

void PrintBenchHeader(std::ostream& os, const std::string& title,
                      const std::string& paper_reference) {
  os << "================================================================\n"
     << title << "\n"
     << "reproduces: " << paper_reference << "\n"
     << "================================================================\n\n";
  eval::PrintParams(os, detect::DetectorParams{}, detect::KsTestParams{});
}

}  // namespace sds::bench
