#include "workloads/synthetic.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace sds::workloads {

SyntheticWorkload::SyntheticWorkload(SyntheticSpec spec)
    : spec_(std::move(spec)),
      miss_stall_ops_(spec_.miss_stall_cost > 0.0
                          ? static_cast<std::uint64_t>(spec_.miss_stall_cost)
                          : 0) {
  SDS_CHECK(!spec_.phases.empty(), "workload needs at least one phase");
  for (const PhaseSpec& p : spec_.phases) {
    SDS_CHECK(p.intensity >= 0.0, "phase intensity must be non-negative");
    SDS_CHECK(p.hot_fraction >= 0.0 && p.hot_fraction <= 1.0,
              "hot_fraction must be in [0, 1]");
    SDS_CHECK(p.hot_lines > 0, "phase needs a non-empty hot set");
    SDS_CHECK(p.stream_lines > 0, "phase needs a non-empty stream region");
  }
  SDS_CHECK(spec_.work_unit > 0, "work_unit must be positive");
}

void SyntheticWorkload::Bind(LineAddr base, Rng rng) {
  SDS_CHECK(!bound_, "workload already bound to a VM");
  bound_ = true;
  base_ = base;
  rng_ = rng;

  // Lay out disjoint hot regions for each phase, then the stream region.
  LineAddr offset = 0;
  hot_offsets_.reserve(spec_.phases.size());
  for (const PhaseSpec& p : spec_.phases) {
    hot_offsets_.push_back(offset);
    offset += p.hot_lines;
  }
  stream_offset_ = offset;
  std::uint64_t stream_lines = 0;
  for (const PhaseSpec& p : spec_.phases) {
    stream_lines = std::max(stream_lines, p.stream_lines);
  }
  SDS_CHECK(stream_offset_ + stream_lines <= LineAddr{1} << vm::kVmLineBits,
            "workload footprint exceeds its VM's line range");

  if (spec_.zipf_exponent > 0.0) {
    for (const PhaseSpec& p : spec_.phases) {
      zipf_.push_back(std::make_unique<ZipfSampler>(
          static_cast<std::size_t>(p.hot_lines), spec_.zipf_exponent));
    }
  }

  EnterPhase(0);
}

void SyntheticWorkload::EnterPhase(std::size_t index) {
  phase_index_ = index;
  phase_work_done_ = 0;
  const PhaseSpec& p = phase();
  stream_pos_ = stream_cursor_ % p.stream_lines;
  hot_threshold_ = Rng::Threshold(p.hot_fraction);
  double target = static_cast<double>(p.work);
  if (p.work_jitter > 0.0 && p.work > 0) {
    target *= 1.0 + rng_.UniformDouble(-p.work_jitter, p.work_jitter);
  }
  phase_work_target_ = static_cast<std::uint64_t>(std::max(0.0, target));
}

void SyntheticWorkload::BeginTick(Tick /*now*/) {
  SDS_CHECK(bound_, "workload not bound");
  // Advance the OU log-intensity process by one tick.
  if (spec_.ou_tau_ticks > 0.0 && spec_.ou_sigma > 0.0) {
    const double theta = 1.0 / spec_.ou_tau_ticks;
    const double noise_sd = spec_.ou_sigma * std::sqrt(2.0 * theta);
    ou_state_ += -theta * ou_state_ + noise_sd * rng_.Normal();
  }

  double budget = phase().intensity * std::exp(ou_state_);
  if (spec_.tick_jitter > 0.0) {
    budget *= std::max(0.0, 1.0 + spec_.tick_jitter * rng_.Normal());
  }
  ops_left_this_tick_ =
      static_cast<std::uint64_t>(std::max(0.0, budget) + 0.5);
}

bool SyntheticWorkload::NextOp(sim::MemOp& op) {
  if (ops_left_this_tick_ == 0) return false;
  --ops_left_this_tick_;

  const PhaseSpec& p = phase();
  op.atomic = false;
  if (rng_.Below(hot_threshold_)) {
    const std::uint64_t idx =
        zipf_.empty() ? rng_.UniformInt(p.hot_lines)
                      : static_cast<std::uint64_t>(
                            zipf_[phase_index_]->Sample(rng_));
    op.addr = base_ + hot_offsets_[phase_index_] + idx;
  } else {
    op.addr = base_ + stream_offset_ + stream_pos_;
    ++stream_cursor_;
    if (++stream_pos_ == p.stream_lines) stream_pos_ = 0;
  }
  return true;
}

void SyntheticWorkload::OnOutcome(const sim::MemOp& /*op*/,
                                  sim::AccessOutcome outcome) {
  if (outcome == sim::AccessOutcome::kStalled) return;
  if (outcome == sim::AccessOutcome::kMiss) {
    // The DRAM stall eats issue budget the core would otherwise spend on
    // further accesses this tick.
    ops_left_this_tick_ -= std::min(ops_left_this_tick_, miss_stall_ops_);
  }
  ++completed_ops_;
  if (phase_work_target_ == 0) return;  // infinite phase

  if (++phase_work_done_ >= phase_work_target_) {
    std::size_t next = phase_index_ + 1;
    if (next >= spec_.phases.size()) {
      ++batches_completed_;
      if (!spec_.cycle) {
        // Stay in the final phase forever.
        EnterPhase(phase_index_);
        phase_work_target_ = 0;
        return;
      }
      next = 0;
    }
    EnterPhase(next);
  }
}

std::uint64_t SyntheticWorkload::work_completed() const {
  return completed_ops_ / spec_.work_unit;
}

}  // namespace sds::workloads
