// Shared infrastructure for the figure-reproduction benches.
//
// Figures 9 (recall), 10 (specificity) and 11 (detection delay) are three
// views of the SAME experiment sweep: every application x both attacks x the
// detection schemes, aggregated over seeded runs. Each bench binary is
// standalone, but the sweep is expensive, so the first binary to run it
// writes the rows to a cache file (keyed by the sweep options) and the
// others reload it. Delete .sds_cache/ to force recomputation.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/flags.h"
#include "eval/aggregate.h"
#include "eval/experiment.h"

namespace sds::bench {

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
  // Set when parsing stopped because --help was given (exit 0, not 1).
  bool help = false;
};

// Parses the standard sweep flags (--runs, --stage-seconds, --seed,
// --telemetry_out) shared by the accuracy benches. Returns false (after
// printing usage) on error or --help; check options.help to pick the exit
// code.
bool ParseSweepFlags(int argc, char** argv, SweepOptions& options);

// Runs one fully instrumented SDS detection run (kmeans vs. bus locking by
// default) with a telemetry handle attached and writes the JSONL stream to
// options.telemetry_out. No-op when the path is empty.
void MaybeEmitTelemetryRun(const SweepOptions& options, std::ostream& log);

struct AccuracyRow {
  std::string app;
  eval::AttackKind attack = eval::AttackKind::kBusLock;
  eval::Scheme scheme = eval::Scheme::kSds;
  eval::AggregatedDetection agg;
};

// Runs (or loads from cache) the full accuracy sweep: all 10 applications x
// {bus-lock, llc-cleansing} x {SDS, KStest}, plus SDS/B and SDS/P for the
// periodic applications (PCA, FaceNet) as in Figures 9-11.
std::vector<AccuracyRow> RunOrLoadAccuracySweep(const SweepOptions& options,
                                                std::ostream& log);

// Pretty header printed by every bench: what is being reproduced, with the
// Table 1 parameters.
void PrintBenchHeader(std::ostream& os, const std::string& title,
                      const std::string& paper_reference);

}  // namespace sds::bench
