#include "vm/vm.h"

#include "common/check.h"

namespace sds::vm {

VirtualMachine::VirtualMachine(OwnerId id, std::string name,
                               std::unique_ptr<Workload> workload, Rng rng)
    : id_(id),
      name_(std::move(name)),
      workload_(std::move(workload)),
      address_base_(static_cast<LineAddr>(id) << kVmLineBits) {
  SDS_CHECK(workload_ != nullptr, "VM needs a workload");
  SDS_CHECK(id != kHypervisorOwner, "owner 0 is reserved for the hypervisor");
  workload_->Bind(address_base_, rng);
}

}  // namespace sds::vm
