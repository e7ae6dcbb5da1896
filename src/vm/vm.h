// A virtual machine: an owner id, a private line-address range, a scheduling
// state and the workload program it runs.
#pragma once

#include <memory>
#include <string>

#include "common/types.h"
#include "vm/workload.h"

namespace sds::vm {

enum class VmState : std::uint8_t {
  kRunning,
  // Execution throttling: the hypervisor pauses the VM (used by the KStest
  // baseline while collecting reference samples of the protected VM).
  kThrottled,
  kStopped,
};

class VirtualMachine {
 public:
  // Each VM owns a disjoint 2^kVmLineBits-line address range derived from
  // its id (vm/workload.h), so distinct VMs can never share cache lines
  // (hypervisors isolate memory pages; only the cache SETS are contended, as
  // in the paper's threat model).
  VirtualMachine(OwnerId id, std::string name,
                 std::unique_ptr<Workload> workload, Rng rng);

  OwnerId id() const { return id_; }
  const std::string& name() const { return name_; }
  VmState state() const { return state_; }
  void set_state(VmState s) { state_ = s; }
  bool runnable() const { return state_ == VmState::kRunning; }

  Workload& workload() { return *workload_; }
  const Workload& workload() const { return *workload_; }

  LineAddr address_base() const { return address_base_; }

 private:
  OwnerId id_;
  std::string name_;
  std::unique_ptr<Workload> workload_;
  LineAddr address_base_;
  VmState state_ = VmState::kRunning;
};

}  // namespace sds::vm
