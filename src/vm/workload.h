// The interface between the hypervisor's scheduler and whatever program runs
// inside a VM — an application model, a benign utility, or an attack program.
//
// Execution model: each tick the hypervisor asks every runnable VM's workload
// to plan its operations (pull-style, one op at a time) and services them
// through the shared machine, interleaving VMs round-robin. Completed and
// stalled outcomes are reported back so the workload can track its own
// progress — this is how prolonged periods and stretched execution times
// emerge for contended applications.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/rng.h"
#include "common/types.h"
#include "sim/machine.h"
#include "sim/mem_op.h"

namespace sds::vm {

// Each VM's private line-address range spans 2^kVmLineBits lines, starting at
// id << kVmLineBits. 32 owners then fit below 2^32 lines, inside the LLC's
// 32-bit tag range at every set count (sim/cache.h), and 2^27 is a multiple
// of every power-of-two set count up to 2^27, so a range starts at set 0.
inline constexpr unsigned kVmLineBits = 27;

class Workload {
 public:
  virtual ~Workload() = default;

  // Called once when the workload is attached to a VM; `base` is the start
  // of the VM's private line-address range and `rng` its private stream.
  // Every address the workload issues lies in [base, base + 2^kVmLineBits);
  // Bind aborts when the workload's footprint does not fit.
  virtual void Bind(LineAddr base, Rng rng) = 0;

  // Called at the start of every tick the VM is runnable.
  virtual void BeginTick(Tick now) = 0;

  // Produces the next desired memory operation for this tick. Returns false
  // when the workload has no more work this tick.
  virtual bool NextOp(sim::MemOp& op) = 0;

  // Reports the outcome of the most recently produced op. kStalled means the
  // op did NOT execute (bus exhausted); the workload must not count it as
  // progress.
  virtual void OnOutcome(const sim::MemOp& op, sim::AccessOutcome outcome) = 0;

  // Total work units completed since Bind (used by fixed-work overhead
  // experiments; for batch applications this advances once per batch item).
  virtual std::uint64_t work_completed() const = 0;

  virtual std::string_view name() const = 0;
};

}  // namespace sds::vm
