// LLC cleansing attack (paper Section 2.2).
//
// The attack runs the paper's two-phase algorithm against the real simulated
// cache, using only what a real attacker has: its own address space and the
// hit/miss timing of its own accesses.
//
//   RECON    The attacker owns a buffer covering the entire LLC (one line per
//            set/way slot). It first PRIMES the whole cache — loading all of
//            its lines, set by set — and then PROBES it with a second full
//            pass, counting per set how many of its lines miss. A probe miss
//            means a co-located VM displaced the attacker's line since the
//            prime pass: the set is actively used by other tenants. (This is
//            the paper's "figure out the maximum number of cache lines which
//            can be accessed without causing cache conflicts": a set where
//            fewer than `ways` lines survive is frequently occupied.)
//   CLEANSE  The attacker sweeps the contended sets, loading all `ways` of
//            its own lines in each — evicting every co-located line in those
//            sets and driving the victim's MissNum up (Observation 1,
//            cleansing half).
//
// Recon repeats every `reprobe_interval_ticks` to track shifting victim
// working sets.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/cache.h"
#include "vm/workload.h"

namespace sds::attacks {

struct LlcCleansingConfig {
  // Geometry of the target LLC (the attacker learns this from CPUID in the
  // real attack; here it is injected).
  std::uint32_t cache_sets = 2048;
  std::uint32_t cache_ways = 16;
  // Memory operations attempted per tick (the attack is a memory hog).
  std::uint32_t ops_per_tick = 3000;
  // Probe-pass misses required to consider a set contended.
  std::uint32_t contention_threshold = 1;
  // Ticks between recon rounds.
  Tick reprobe_interval_ticks = 500;
};

class LlcCleansingAttacker final : public vm::Workload {
 public:
  explicit LlcCleansingAttacker(const LlcCleansingConfig& config);

  void Bind(LineAddr base, Rng rng) override;
  void BeginTick(Tick now) override;
  bool NextOp(sim::MemOp& op) override;
  void OnOutcome(const sim::MemOp& op, sim::AccessOutcome outcome) override;
  std::uint64_t work_completed() const override { return cleanse_ops_; }
  std::string_view name() const override { return "llc-cleansing-attack"; }

  // Introspection for tests.
  bool in_recon() const { return mode_ != Mode::kCleanse; }
  const std::vector<std::uint32_t>& contended_sets() const {
    return contended_sets_;
  }
  std::uint64_t cleanse_ops() const { return cleanse_ops_; }
  std::uint64_t recon_rounds() const { return recon_rounds_; }

 private:
  enum class Mode : std::uint8_t { kReconPrime, kReconProbe, kCleanse };

  LineAddr LineFor(std::uint32_t set, std::uint32_t way) const;
  void FinishReconRound();

  LlcCleansingConfig config_;
  LineAddr base_ = 0;
  Mode mode_ = Mode::kReconPrime;
  std::uint32_t ops_left_this_tick_ = 0;

  // Recon cursors: current set and way of the ongoing full-cache pass.
  std::uint32_t recon_set_ = 0;
  std::uint32_t recon_way_ = 0;
  // Per-set probe-miss counters for the current recon round.
  std::vector<std::uint16_t> probe_misses_;
  // Set of the probe op most recently produced (for OnOutcome attribution);
  // meaningful only while pending_probe_ is set.
  std::uint32_t pending_probe_set_ = 0;
  bool pending_probe_ = false;
  bool last_probe_of_round_ = false;

  // Cleanse cursor.
  std::vector<std::uint32_t> contended_sets_;
  std::size_t cleanse_index_ = 0;
  std::uint32_t cleanse_way_ = 0;

  Tick ticks_since_recon_ = 0;
  std::uint64_t cleanse_ops_ = 0;
  std::uint64_t recon_rounds_ = 0;
};

}  // namespace sds::attacks
