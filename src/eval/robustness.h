// Monitoring-plane robustness protocol.
//
// The accuracy protocol (experiment.h) assumes a perfect monitoring plane.
// This module re-runs the same three-stage experiment with a fault::FaultPlan
// injected between the PCM sampler and the detector, and sweeps fault kind x
// fault rate to produce recall / specificity / delay DEGRADATION CURVES: how
// fast does each detection scheme fall apart as its input stream rots, and
// how much of that is bought back by the degradation policies in
// detect/degrade.h?
//
// Faults only perturb the monitoring plane of stages 2 and 3 — the profile
// (stage 1) is built from a certified-clean window, matching the paper's
// assumption that profiling happens in a safe window right after VM start.
// The simulation seed derivation is IDENTICAL to RunDetectionRun, so a
// faulted run and its fault-free baseline observe the same workload and
// attack trajectory; the only difference is what the detector gets to see.
#pragma once

#include <iosfwd>
#include <vector>

#include "detect/degrade.h"
#include "eval/experiment.h"
#include "fault/fault_plan.h"

namespace sds::eval {

struct RobustnessRunConfig {
  fault::FaultPlan plan;
  detect::DegradeConfig degrade;
};

// What actually happened to the monitoring plane during one faulted run.
struct RobustnessCounters {
  fault::FaultStats fault;
  detect::DegradeStats degrade;
  // KStest only: collections that ran out of slack and were abandoned.
  std::uint64_t ks_abandoned_collections = 0;

  void Accumulate(const RobustnessCounters& other);
};

// Steps DetectionEpisode(config, seed, &robust) to the end: the same
// simulated trajectory as the fault-free RunDetectionRun, read through the
// faulted monitoring plane. Deterministic for a fixed (config, seed, robust).
DetectionRunResult RunDetectionRunFaulted(const DetectionRunConfig& config,
                                          std::uint64_t seed,
                                          const RobustnessRunConfig& robust,
                                          RobustnessCounters* counters);

struct RobustnessSweepConfig {
  DetectionRunConfig run;
  // The sweep grid: every kind at every rate, plus one fault-free baseline
  // cell (rate 0) that still routes through the injector + gate.
  std::vector<fault::FaultKind> kinds = {
      fault::FaultKind::kDropSample,
      fault::FaultKind::kOutage,
      fault::FaultKind::kSamplerDeath,
      fault::FaultKind::kCounterReset,
      fault::FaultKind::kCorruption,
  };
  std::vector<double> rates = {0.01, 0.05, 0.2};
  detect::DegradeConfig degrade;
  int runs_per_cell = 3;
  std::uint64_t base_seed = 9000;
};

// One (kind, rate) grid cell, aggregated over runs_per_cell seeded runs.
struct RobustnessCell {
  fault::FaultKind kind = fault::FaultKind::kDropSample;
  double rate = 0.0;  // 0 = fault-free baseline cell
  int runs = 0;
  int detected_runs = 0;
  // Mean detection delay over the detected runs; -1 when none detected.
  double mean_delay_ticks = -1.0;
  int true_negative_intervals = 0;
  int false_positive_intervals = 0;
  RobustnessCounters counters;

  double recall() const {
    return runs == 0 ? 0.0
                     : static_cast<double>(detected_runs) /
                           static_cast<double>(runs);
  }
  double specificity() const {
    const int total = true_negative_intervals + false_positive_intervals;
    return total == 0 ? 1.0
                      : static_cast<double>(true_negative_intervals) /
                            static_cast<double>(total);
  }
};

struct RobustnessSweepResult {
  RobustnessCell baseline;
  std::vector<RobustnessCell> cells;  // kinds x rates, kind-major
};

// Runs the grid in parallel; the thread count never changes a value.
RobustnessSweepResult RunRobustnessSweep(const RobustnessSweepConfig& config);

// Writes the whole sweep as one JSON object (the BENCH_robustness schema):
// scheme/app/attack, degradation policy, the baseline cell and every grid
// cell with recall, specificity, mean delay and the fault/degradation
// counters.
void WriteRobustnessJson(std::ostream& os, const RobustnessSweepConfig& config,
                         const RobustnessSweepResult& result);

}  // namespace sds::eval
