// Phase-structured synthetic application models.
//
// The paper's measurement study (Section 3) spans ten real applications
// (HiBench ML jobs, Hive queries, TeraSort, PageRank, FaceNet). What the
// detection schemes actually consume is each application's LLC access/miss
// time series, whose statistical shape falls into three families:
//
//   * stationary with correlated noise (Bayes, SVM, Aggregation, Scan,
//     PageRank, ...): intensity wanders slowly around a mean;
//   * phase-switching (TeraSort, Join, k-means): distinct execution phases
//     with different intensities and locality, switching at work-dependent
//     boundaries — the family on which KStest generates false positives;
//   * batch-periodic (PCA, FaceNet): a fixed cycle of phases repeats every
//     batch, so the series is periodic IN COMPLETED WORK — which is why the
//     period measured in wall time stretches under attack (Observation 2).
//
// A SyntheticWorkload is a sequence of PhaseSpecs advanced by COMPLETED
// operations (never by ticks), with a two-level noise model: an
// Ornstein-Uhlenbeck process modulating intensity on a seconds timescale
// (survives the W=200 moving average, so SDS/B profiles see realistic
// variance) plus iid per-tick jitter.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "vm/workload.h"

namespace sds::workloads {

struct PhaseSpec {
  std::string name;
  // Target completed operations per tick (the app's nominal LLC pressure).
  double intensity = 400.0;
  // Fraction of operations that go to the phase's hot working set (these hit
  // once the set is resident, so 1 - hot_fraction approximates the miss
  // ratio in steady state without an attack).
  double hot_fraction = 0.75;
  // Hot working-set size in cache lines.
  std::uint64_t hot_lines = 2000;
  // Streaming region size in lines (sequential, wrapping; always misses once
  // the region exceeds the LLC).
  std::uint64_t stream_lines = 200000;
  // Completed operations spent in this phase before advancing; 0 = forever.
  std::uint64_t work = 0;
  // Fractional randomization of `work` each time the phase is entered.
  double work_jitter = 0.0;
};

struct SyntheticSpec {
  std::string name;
  std::vector<PhaseSpec> phases;
  // true: phases repeat in a cycle (batch-periodic or iterative apps);
  // false: the final phase runs forever once reached.
  bool cycle = true;
  // Ornstein-Uhlenbeck log-intensity modulation: correlation time in ticks
  // and stationary standard deviation. tau <= 0 disables.
  double ou_tau_ticks = 300.0;
  double ou_sigma = 0.10;
  // Standard deviation of iid multiplicative per-tick jitter.
  double tick_jitter = 0.05;
  // Completed operations per reported work unit (for fixed-work runs).
  std::uint64_t work_unit = 1000;
  // Extra issue-budget units consumed by an LLC miss: the core stalls on
  // DRAM instead of issuing further work. This is the mechanism that slows
  // a cleansed application down — and hence stretches the period of batch
  // applications (Observation 2) — rather than merely raising its miss
  // count. Kept moderate (1.0): memory-level parallelism hides part of the
  // DRAM latency on real cores, and a larger value suppresses issued
  // operations so strongly under cleansing that the MissNum increase the
  // paper observes would wash out.
  double miss_stall_cost = 1.0;
  // > 0: hot-set accesses are Zipf-distributed with this exponent
  // (PageRank's hyperlink popularity); 0: uniform over the hot set.
  double zipf_exponent = 0.0;
};

class SyntheticWorkload final : public vm::Workload {
 public:
  explicit SyntheticWorkload(SyntheticSpec spec);

  void Bind(LineAddr base, Rng rng) override;
  void BeginTick(Tick now) override;
  bool NextOp(sim::MemOp& op) override;
  void OnOutcome(const sim::MemOp& op, sim::AccessOutcome outcome) override;
  std::uint64_t work_completed() const override;
  std::string_view name() const override { return spec_.name; }

  // Introspection for tests and the measurement-study bench.
  std::size_t current_phase() const { return phase_index_; }
  std::uint64_t batches_completed() const { return batches_completed_; }
  const SyntheticSpec& spec() const { return spec_; }

 private:
  void EnterPhase(std::size_t index);
  const PhaseSpec& phase() const { return spec_.phases[phase_index_]; }

  SyntheticSpec spec_;
  // spec_.miss_stall_cost in whole issue-budget units (0 when not positive).
  std::uint64_t miss_stall_ops_;
  Rng rng_{0};
  LineAddr base_ = 0;
  bool bound_ = false;

  // Per-phase hot-region offsets (disjoint so phase changes shift locality).
  std::vector<LineAddr> hot_offsets_;
  LineAddr stream_offset_ = 0;
  // Stream ops issued so far, across phases, and that count wrapped at the
  // current phase's stream_lines (re-derived by EnterPhase, so NextOp only
  // compares and wraps).
  std::uint64_t stream_cursor_ = 0;
  std::uint64_t stream_pos_ = 0;
  // The current phase's hot_fraction as an Rng::Threshold (set by
  // EnterPhase), so NextOp's hot-or-stream draw is one integer compare.
  std::uint64_t hot_threshold_ = 0;
  std::vector<std::unique_ptr<ZipfSampler>> zipf_;

  std::size_t phase_index_ = 0;
  std::uint64_t phase_work_done_ = 0;
  std::uint64_t phase_work_target_ = 0;
  std::uint64_t batches_completed_ = 0;

  double ou_state_ = 0.0;
  std::uint64_t ops_left_this_tick_ = 0;
  std::uint64_t completed_ops_ = 0;
};

}  // namespace sds::workloads
