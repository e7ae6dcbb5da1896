#include "attacks/bus_lock_attacker.h"

#include "common/check.h"

namespace sds::attacks {

BusLockAttacker::BusLockAttacker(const BusLockConfig& config)
    : config_(config) {
  SDS_CHECK(config.atomics_per_tick > 0, "attack rate must be positive");
  SDS_CHECK(config.buffer_lines > 0, "attack buffer must be non-empty");
}

void BusLockAttacker::Bind(LineAddr base, Rng /*rng*/) {
  SDS_CHECK(config_.buffer_lines <= LineAddr{1} << vm::kVmLineBits,
            "attack buffer exceeds its VM's line range");
  base_ = base;
}

void BusLockAttacker::BeginTick(Tick /*now*/) {
  ops_left_this_tick_ = config_.atomics_per_tick;
}

bool BusLockAttacker::NextOp(sim::MemOp& op) {
  if (ops_left_this_tick_ == 0) return false;
  --ops_left_this_tick_;
  op.atomic = true;
  op.addr = base_ + cursor_;
  if (++cursor_ == config_.buffer_lines) cursor_ = 0;
  return true;
}

void BusLockAttacker::OnOutcome(const sim::MemOp& /*op*/,
                                sim::AccessOutcome outcome) {
  if (outcome != sim::AccessOutcome::kStalled) ++locks_issued_;
}

}  // namespace sds::attacks
