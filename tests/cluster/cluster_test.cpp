#include "cluster/cluster.h"

#include <vector>

#include <gtest/gtest.h>

#include "workloads/catalog.h"

namespace sds::cluster {
namespace {

HostConfig DefaultHost() { return HostConfig{}; }

WorkloadFactory AppFactory(const std::string& app) {
  return [app] { return workloads::MakeApp(app); };
}

TEST(ClusterTest, DeploysOnRequestedHost) {
  Cluster cluster(3, DefaultHost(), 1);
  const VmRef a = cluster.Deploy(0, "a", AppFactory("bayes"));
  const VmRef b = cluster.Deploy(2, "b", AppFactory("scan"));
  EXPECT_EQ(a.host, 0);
  EXPECT_EQ(b.host, 2);
  EXPECT_EQ(cluster.hypervisor(0).vm_count(), 1u);
  EXPECT_EQ(cluster.hypervisor(1).vm_count(), 0u);
  EXPECT_EQ(cluster.hypervisor(2).vm_count(), 1u);
}

TEST(ClusterTest, RunTickAdvancesEveryHost) {
  Cluster cluster(2, DefaultHost(), 2);
  cluster.Deploy(0, "a", AppFactory("bayes"));
  for (int t = 0; t < 10; ++t) cluster.RunTick();
  EXPECT_EQ(cluster.hypervisor(0).now(), 10);
  EXPECT_EQ(cluster.hypervisor(1).now(), 10);
  EXPECT_EQ(cluster.now(), 10);
}

TEST(ClusterTest, DeployedVmMakesProgress) {
  Cluster cluster(1, DefaultHost(), 3);
  const VmRef vm = cluster.Deploy(0, "a", AppFactory("bayes"));
  for (int t = 0; t < 100; ++t) cluster.RunTick();
  EXPECT_GT(cluster.counters(vm).llc_accesses, 1000u);
}

TEST(ClusterTest, MigrationStopsSourceAndStartsFresh) {
  Cluster cluster(2, DefaultHost(), 4);
  const VmRef vm = cluster.Deploy(0, "app", AppFactory("bayes"));
  for (int t = 0; t < 50; ++t) cluster.RunTick();
  const auto source_accesses = cluster.counters(vm).llc_accesses;
  EXPECT_GT(source_accesses, 0u);

  const VmRef moved = cluster.Migrate(vm, 1);
  EXPECT_EQ(moved.host, 1);
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(cluster.hypervisor(1).vm(moved.id).name(), "app");

  for (int t = 0; t < 50; ++t) cluster.RunTick();
  // Source froze, destination progresses.
  EXPECT_EQ(cluster.counters(vm).llc_accesses, source_accesses);
  EXPECT_GT(cluster.counters(moved).llc_accesses, 0u);
  EXPECT_EQ(cluster.runnable_vms(0), 0);
  EXPECT_EQ(cluster.runnable_vms(1), 1);
}

TEST(ClusterTest, StopVmFreezesIt) {
  Cluster cluster(1, DefaultHost(), 5);
  const VmRef vm = cluster.Deploy(0, "a", AppFactory("scan"));
  for (int t = 0; t < 20; ++t) cluster.RunTick();
  const auto before = cluster.counters(vm).llc_accesses;
  cluster.StopVm(vm);
  for (int t = 0; t < 20; ++t) cluster.RunTick();
  EXPECT_EQ(cluster.counters(vm).llc_accesses, before);
}

TEST(ClusterTest, MigrateToSameHostAborts) {
  Cluster cluster(2, DefaultHost(), 6);
  const VmRef vm = cluster.Deploy(0, "a", AppFactory("bayes"));
  EXPECT_DEATH(cluster.Migrate(vm, 0), "different host");
}

TEST(ClusterTest, InvalidRefAborts) {
  Cluster cluster(1, DefaultHost(), 7);
  VmRef bogus;
  EXPECT_DEATH(cluster.StopVm(bogus), "invalid VM reference");
}

TEST(ClusterTest, DeployBeyondCapacityAborts) {
  std::vector<HostConfig> hosts(1);
  hosts[0].vm_capacity = 2;
  Cluster cluster(hosts, 9);
  cluster.Deploy(0, "a", AppFactory("bayes"));
  cluster.Deploy(0, "b", AppFactory("scan"));
  EXPECT_DEATH(cluster.Deploy(0, "c", AppFactory("bayes")),
               "host at capacity");
}

TEST(ClusterTest, MigrateToFullHostAborts) {
  std::vector<HostConfig> hosts(2);
  hosts[1].vm_capacity = 1;
  Cluster cluster(hosts, 9);
  const VmRef vm = cluster.Deploy(0, "a", AppFactory("bayes"));
  cluster.Deploy(1, "occupant", AppFactory("scan"));
  EXPECT_DEATH(cluster.Migrate(vm, 1), "destination host at capacity");
}

TEST(ClusterTest, MigrateOfStoppedVmAborts) {
  Cluster cluster(2, DefaultHost(), 10);
  const VmRef vm = cluster.Deploy(0, "a", AppFactory("bayes"));
  cluster.StopVm(vm);
  EXPECT_DEATH(cluster.Migrate(vm, 1), "cannot migrate");
}

TEST(ClusterTest, MigratingTheMigratedCopyKeepsWorking) {
  // Migrate twice: the fresh copy from the first migration is itself a valid
  // migration source; the original ref stays frozen throughout.
  Cluster cluster(3, DefaultHost(), 11);
  const VmRef vm = cluster.Deploy(0, "a", AppFactory("bayes"));
  const VmRef first = cluster.Migrate(vm, 1);
  const VmRef second = cluster.Migrate(first, 2);
  EXPECT_EQ(second.host, 2);
  EXPECT_FALSE(cluster.IsRunnable(vm));
  EXPECT_FALSE(cluster.IsRunnable(first));
  EXPECT_TRUE(cluster.IsRunnable(second));
  for (int t = 0; t < 20; ++t) cluster.RunTick();
  EXPECT_GT(cluster.counters(second).llc_accesses, 0u);
}

TEST(ClusterTest, StoppedVmReleasesItsCapacitySlot) {
  std::vector<HostConfig> hosts(1);
  hosts[0].vm_capacity = 1;
  Cluster cluster(hosts, 12);
  const VmRef vm = cluster.Deploy(0, "a", AppFactory("bayes"));
  EXPECT_FALSE(cluster.HasCapacity(0));
  cluster.StopVm(vm);
  EXPECT_TRUE(cluster.HasCapacity(0));
  const VmRef next = cluster.Deploy(0, "b", AppFactory("scan"));
  EXPECT_TRUE(cluster.IsRunnable(next));
}

TEST(ClusterTest, HostsAreIsolatedMachines) {
  // VMs on different hosts never contend: a heavy tenant on host 0 leaves a
  // tenant on host 1 untouched.
  Cluster light(2, DefaultHost(), 8);
  const VmRef solo = light.Deploy(1, "solo", AppFactory("bayes"));
  for (int t = 0; t < 100; ++t) light.RunTick();
  const auto solo_only = light.counters(solo).llc_accesses;

  Cluster busy(2, DefaultHost(), 8);
  busy.Deploy(0, "hog", AppFactory("scan"));
  const VmRef with_hog = busy.Deploy(1, "solo", AppFactory("bayes"));
  for (int t = 0; t < 100; ++t) busy.RunTick();
  EXPECT_EQ(busy.counters(with_hog).llc_accesses, solo_only);
}

}  // namespace
}  // namespace sds::cluster
