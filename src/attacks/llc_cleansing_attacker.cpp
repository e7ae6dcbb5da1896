#include "attacks/llc_cleansing_attacker.h"

#include <numeric>

#include "common/check.h"

namespace sds::attacks {

LlcCleansingAttacker::LlcCleansingAttacker(const LlcCleansingConfig& config)
    : config_(config) {
  SDS_CHECK(config.cache_sets > 0 &&
                (config.cache_sets & (config.cache_sets - 1)) == 0,
            "cache_sets must be a power of two");
  SDS_CHECK(config.cache_ways > 0, "cache_ways must be positive");
  SDS_CHECK(config.ops_per_tick > 0, "attack rate must be positive");
  SDS_CHECK(config.reprobe_interval_ticks > 0,
            "reprobe interval must be positive");
  probe_misses_.assign(config.cache_sets, 0);
}

void LlcCleansingAttacker::Bind(LineAddr base, Rng /*rng*/) {
  SDS_CHECK(base % config_.cache_sets == 0,
            "attack buffer must be set-aligned");
  SDS_CHECK(std::uint64_t{config_.cache_sets} * config_.cache_ways <=
                LineAddr{1} << vm::kVmLineBits,
            "attack buffer exceeds its VM's line range");
  base_ = base;
}

LineAddr LlcCleansingAttacker::LineFor(std::uint32_t set,
                                       std::uint32_t way) const {
  // base_ is a multiple of cache_sets, so this address maps to `set` and the
  // per-way stride keeps the tags distinct.
  return base_ + static_cast<LineAddr>(way) * config_.cache_sets + set;
}

void LlcCleansingAttacker::BeginTick(Tick /*now*/) {
  ops_left_this_tick_ = config_.ops_per_tick;
  if (mode_ == Mode::kCleanse &&
      ++ticks_since_recon_ >= config_.reprobe_interval_ticks) {
    mode_ = Mode::kReconPrime;
    recon_set_ = 0;
    recon_way_ = 0;
    probe_misses_.assign(config_.cache_sets, 0);
  }
}

void LlcCleansingAttacker::FinishReconRound() {
  ++recon_rounds_;
  contended_sets_.clear();
  for (std::uint32_t set = 0; set < config_.cache_sets; ++set) {
    if (probe_misses_[set] >= config_.contention_threshold) {
      contended_sets_.push_back(set);
    }
  }
  if (contended_sets_.empty()) {
    // Nothing identified (e.g. idle co-tenants): cleanse everything.
    contended_sets_.resize(config_.cache_sets);
    std::iota(contended_sets_.begin(), contended_sets_.end(), 0u);
  }
  cleanse_index_ = 0;
  cleanse_way_ = 0;
  ticks_since_recon_ = 0;
  recon_set_ = 0;
  recon_way_ = 0;
  mode_ = Mode::kCleanse;
}

bool LlcCleansingAttacker::NextOp(sim::MemOp& op) {
  if (ops_left_this_tick_ == 0) return false;
  --ops_left_this_tick_;
  op.atomic = false;
  pending_probe_ = false;

  if (mode_ == Mode::kReconPrime || mode_ == Mode::kReconProbe) {
    op.addr = LineFor(recon_set_, recon_way_);
    if (mode_ == Mode::kReconProbe) {
      pending_probe_ = true;
      pending_probe_set_ = recon_set_;
      last_probe_of_round_ = (recon_set_ + 1 == config_.cache_sets &&
                              recon_way_ + 1 == config_.cache_ways);
    }
    if (++recon_way_ >= config_.cache_ways) {
      recon_way_ = 0;
      if (++recon_set_ >= config_.cache_sets) {
        recon_set_ = 0;
        // Prime pass done -> start the probe pass; the probe pass finishes
        // from OnOutcome so the final probe's outcome is counted.
        if (mode_ == Mode::kReconPrime) mode_ = Mode::kReconProbe;
      }
    }
    return true;
  }

  // Cleanse mode.
  const std::uint32_t set = contended_sets_[cleanse_index_];
  op.addr = LineFor(set, cleanse_way_);
  if (++cleanse_way_ >= config_.cache_ways) {
    cleanse_way_ = 0;
    if (++cleanse_index_ >= contended_sets_.size()) cleanse_index_ = 0;
  }
  return true;
}

void LlcCleansingAttacker::OnOutcome(const sim::MemOp& /*op*/,
                                     sim::AccessOutcome outcome) {
  if (outcome != sim::AccessOutcome::kStalled) {
    if (pending_probe_ && outcome == sim::AccessOutcome::kMiss) {
      // Our line was displaced between the prime and the probe pass: another
      // VM is actively using this set.
      if (probe_misses_[pending_probe_set_] < 0xffff) {
        ++probe_misses_[pending_probe_set_];
      }
    }
    if (mode_ == Mode::kCleanse) ++cleanse_ops_;
  }
  pending_probe_ = false;
  if (last_probe_of_round_) {
    last_probe_of_round_ = false;
    FinishReconRound();
  }
}

}  // namespace sds::attacks
