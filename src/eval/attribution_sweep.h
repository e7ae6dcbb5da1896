// Attribution accuracy sweep: scores the forensics engine against ground
// truth the simulator knows exactly — which VM actually ran the attack.
//
// The grid covers the attack x workload cells of the accuracy protocol
// (single attacker, both attack programs), one quiet cell per application
// (a false-positive alarm must stay unattributed), one colluding
// two-attacker cell, and one cell that runs the full KStest baseline with
// its identification sweep so the hardware evidence can be scored against
// the baseline's throttling-derived culprit. Per cell the sweep records the
// forensic rank of the true attacker; the headline metrics are rank-1
// fraction (single-attacker cells), attribution precision/recall over the
// whole grid, and an FNV fingerprint of every report — two sweeps of the
// same seed must fingerprint identically or scoring has gone
// non-deterministic (the bench's payload pin under tests/sweeps/ carries
// the fingerprint).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"
#include "detect/forensics.h"
#include "eval/scenario.h"

namespace sds::eval {

struct AttributionSweepConfig {
  std::vector<std::string> apps = {"kmeans", "terasort", "bayes", "pca"};
  // Evidence-collection window under attack; the forced alarm fires at its
  // end (the sweep scores attribution, not detection delay).
  Tick attack_ticks = 600;
  std::uint64_t base_seed = 9100;
  detect::ForensicsConfig forensics;
};

struct AttributionCell {
  std::string app;
  AttackKind attack = AttackKind::kNone;
  AttackKind attack2 = AttackKind::kNone;
  // True culprit VM ids (0 = none).
  OwnerId true_attacker = 0;
  OwnerId true_attacker2 = 0;
  // Scored from the forensic report:
  bool attributed = false;
  OwnerId prime_suspect = 0;
  double prime_score = 0.0;
  // 1-based rank of true_attacker among the suspects; 0 when absent or no
  // attack ran.
  int rank_of_true = 0;
  Tick evidence_lead_ticks = 0;
  // KStest cell only: the baseline's culprit and whether forensics agrees.
  OwnerId kstest_culprit = 0;
  bool kstest_agrees = false;
  // The full forensic report the fields above were scored from, kept so the
  // bench can stream WriteForensicReportJson lines for the inspect tools.
  detect::ForensicReport report;
};

struct AttributionSweepResult {
  std::vector<AttributionCell> cells;
  // Fraction of single-attacker cells whose rank_of_true == 1.
  double rank1_fraction = 0.0;
  // Attribution decisions over the whole grid: a true positive names a real
  // attacker; naming anyone on a quiet cell (or the wrong VM on an attacked
  // one) is a false positive; an unattributed attacked cell is a false
  // negative.
  int true_positives = 0;
  int false_positives = 0;
  int false_negatives = 0;
  double precision = 1.0;
  double recall = 1.0;
  double mean_rank_of_true = 0.0;
  // FNV-1a over every cell's scored fields (doubles by bit pattern): equal
  // across repeated sweeps of the same config.
  std::uint64_t fingerprint = 0;
};

// Runs cell i at seed base_seed + i, all cells in parallel, then writes one
// `log` line per cell in cell order; the thread count never changes a value.
AttributionSweepResult RunAttributionSweep(const AttributionSweepConfig& config,
                                           std::ostream* log = nullptr);

// One JSON object with the config, per-cell rows and the summary metrics
// (the BENCH_attrib payload).
void WriteAttributionJson(std::ostream& os,
                          const AttributionSweepConfig& config,
                          const AttributionSweepResult& result);

}  // namespace sds::eval
