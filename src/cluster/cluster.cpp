#include "cluster/cluster.h"

#include <algorithm>

#include "cluster/host_lifecycle.h"
#include "common/check.h"

namespace sds::cluster {

Cluster::Cluster(int hosts, const HostConfig& config, std::uint64_t seed)
    : Cluster(std::vector<HostConfig>(
                  static_cast<std::size_t>(std::max(hosts, 0)), config),
              seed) {}

Cluster::Cluster(const std::vector<HostConfig>& hosts, std::uint64_t seed) {
  SDS_CHECK(!hosts.empty(), "cluster needs at least one host");
  Rng root(seed);
  hosts_.reserve(hosts.size());
  records_.resize(hosts.size());
  for (const HostConfig& config : hosts) {
    SDS_CHECK(config.vm_capacity >= 0, "host capacity must be non-negative");
    Host host;
    host.machine = std::make_unique<sim::Machine>(config.machine);
    host.hypervisor = std::make_unique<vm::Hypervisor>(
        *host.machine, config.hypervisor, root.Fork());
    host.vm_capacity = config.vm_capacity;
    hosts_.push_back(std::move(host));
  }
}

VmRef Cluster::Deploy(int host, const std::string& name,
                      WorkloadFactory factory) {
  SDS_CHECK(host >= 0 && host < host_count(), "no such host");
  SDS_CHECK(factory != nullptr, "deployment needs a workload factory");
  SDS_CHECK(HasCapacity(host), "host at capacity");
  VmRef ref;
  ref.host = host;
  ref.id = hosts_[static_cast<std::size_t>(host)].hypervisor->CreateVm(
      name, factory());
  records_[static_cast<std::size_t>(host)].push_back(Record{name, factory});
  return ref;
}

void Cluster::RunTick() {
  if (lifecycle_ != nullptr) lifecycle_->BeginTick(tick_);
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    if (lifecycle_ != nullptr && !lifecycle_->serving(static_cast<int>(h))) {
      continue;
    }
    hosts_[h].hypervisor->RunTick();
  }
  ++tick_;
}

Tick Cluster::now() const { return tick_; }

void Cluster::AttachLifecycle(HostLifecycle* lifecycle) {
  SDS_CHECK(lifecycle == nullptr || lifecycle->host_count() == host_count(),
            "lifecycle host count must match the cluster");
  lifecycle_ = lifecycle;
}

bool Cluster::host_serving(int host) const {
  SDS_CHECK(host >= 0 && host < host_count(), "no such host");
  return lifecycle_ == nullptr || lifecycle_->serving(host);
}

bool Cluster::host_placeable(int host) const {
  SDS_CHECK(host >= 0 && host < host_count(), "no such host");
  return lifecycle_ == nullptr || lifecycle_->placeable(host);
}

const Cluster::Record& Cluster::RecordFor(const VmRef& ref) const {
  SDS_CHECK(ref.valid(), "invalid VM reference");
  SDS_CHECK(ref.host < host_count(), "no such host");
  const auto& host_records = records_[static_cast<std::size_t>(ref.host)];
  SDS_CHECK(ref.id <= host_records.size(), "no such VM on that host");
  return host_records[ref.id - 1];
}

VmRef Cluster::Migrate(const VmRef& ref, int destination_host) {
  SDS_CHECK(destination_host >= 0 && destination_host < host_count(),
            "no such destination host");
  SDS_CHECK(destination_host != ref.host,
            "migration target must be a different host");
  SDS_CHECK(IsRunnable(ref), "cannot migrate a VM that is not running");
  SDS_CHECK(HasCapacity(destination_host), "destination host at capacity");
  const Record record = RecordFor(ref);  // copy before mutation
  StopVm(ref);
  return Deploy(destination_host, record.name, record.factory);
}

void Cluster::StopVm(const VmRef& ref) {
  RecordFor(ref);  // validates
  hosts_[static_cast<std::size_t>(ref.host)]
      .hypervisor->vm(ref.id)
      .set_state(vm::VmState::kStopped);
}

bool Cluster::HasCapacity(int host) const {
  SDS_CHECK(host >= 0 && host < host_count(), "no such host");
  const int capacity = hosts_[static_cast<std::size_t>(host)].vm_capacity;
  return capacity == 0 || runnable_vms(host) < capacity;
}

bool Cluster::IsRunnable(const VmRef& ref) const {
  RecordFor(ref);  // validates
  return hosts_[static_cast<std::size_t>(ref.host)]
      .hypervisor->vm(ref.id)
      .runnable();
}

sim::Machine& Cluster::machine(int host) {
  SDS_CHECK(host >= 0 && host < host_count(), "no such host");
  return *hosts_[static_cast<std::size_t>(host)].machine;
}

vm::Hypervisor& Cluster::hypervisor(int host) {
  SDS_CHECK(host >= 0 && host < host_count(), "no such host");
  return *hosts_[static_cast<std::size_t>(host)].hypervisor;
}

const sim::OwnerCounters& Cluster::counters(const VmRef& ref) {
  RecordFor(ref);  // validates
  return machine(ref.host).counters(ref.id);
}

int Cluster::vm_capacity(int host) const {
  SDS_CHECK(host >= 0 && host < host_count(), "no such host");
  return hosts_[static_cast<std::size_t>(host)].vm_capacity;
}

int Cluster::runnable_vms(int host) const {
  SDS_CHECK(host >= 0 && host < host_count(), "no such host");
  const auto& hv = *hosts_[static_cast<std::size_t>(host)].hypervisor;
  int runnable = 0;
  for (OwnerId id = 1; id <= hv.vm_count(); ++id) {
    if (hv.vm(id).runnable()) ++runnable;
  }
  return runnable;
}

}  // namespace sds::cluster
