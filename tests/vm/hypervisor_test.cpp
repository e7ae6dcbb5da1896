#include "vm/hypervisor.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "vm/vm.h"

namespace sds::vm {
namespace {

// Deterministic test workload: issues `rate` sequential accesses per tick
// over a private region, counting what actually executed.
class FixedRateWorkload final : public Workload {
 public:
  explicit FixedRateWorkload(std::uint32_t rate, std::uint64_t region = 1024,
                             bool atomic = false)
      : rate_(rate), region_(region), atomic_(atomic) {}

  void Bind(LineAddr base, Rng /*rng*/) override { base_ = base; }
  void BeginTick(Tick /*now*/) override {
    left_ = rate_;
    ++ticks_seen_;
  }
  bool NextOp(sim::MemOp& op) override {
    if (left_ == 0) return false;
    --left_;
    op.atomic = atomic_;
    op.addr = base_ + (cursor_++ % region_);
    return true;
  }
  void OnOutcome(const sim::MemOp&, sim::AccessOutcome outcome) override {
    if (outcome != sim::AccessOutcome::kStalled) {
      ++completed_;
    } else {
      ++stalled_;
    }
  }
  std::uint64_t work_completed() const override { return completed_; }
  std::string_view name() const override { return "fixed-rate"; }

  std::uint64_t completed() const { return completed_; }
  std::uint64_t stalled() const { return stalled_; }
  std::uint64_t ticks_seen() const { return ticks_seen_; }

 private:
  std::uint32_t rate_;
  std::uint64_t region_;
  bool atomic_;
  LineAddr base_ = 0;
  std::uint32_t left_ = 0;
  std::uint64_t cursor_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t stalled_ = 0;
  std::uint64_t ticks_seen_ = 0;
};

struct Rig {
  sim::MachineConfig config;
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<Hypervisor> hypervisor;

  explicit Rig(std::uint32_t bus_slots = 10000,
               double monitor_load = 0.0) {
    config.cache.sets = 64;
    config.cache.ways = 4;
    config.bus.slots_per_tick = bus_slots;
    machine = std::make_unique<sim::Machine>(config);
    HypervisorConfig hc;
    hc.monitor_load_fraction = monitor_load > 0.0 ? monitor_load : 0.012;
    hypervisor = std::make_unique<Hypervisor>(*machine, hc, Rng(5));
  }
};

TEST(HypervisorTest, AssignsSequentialOwnerIds) {
  Rig rig;
  const OwnerId a = rig.hypervisor->CreateVm(
      "a", std::make_unique<FixedRateWorkload>(10));
  const OwnerId b = rig.hypervisor->CreateVm(
      "b", std::make_unique<FixedRateWorkload>(10));
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(rig.hypervisor->vm_count(), 2u);
  EXPECT_EQ(rig.hypervisor->vm(a).name(), "a");
}

TEST(HypervisorTest, VmsGetDisjointAddressBases) {
  Rig rig;
  const OwnerId a = rig.hypervisor->CreateVm(
      "a", std::make_unique<FixedRateWorkload>(1));
  const OwnerId b = rig.hypervisor->CreateVm(
      "b", std::make_unique<FixedRateWorkload>(1));
  EXPECT_NE(rig.hypervisor->vm(a).address_base(),
            rig.hypervisor->vm(b).address_base());
}

TEST(HypervisorTest, AllPlannedOpsExecuteWithAmpleBus) {
  Rig rig(100000);
  rig.hypervisor->CreateVm("a", std::make_unique<FixedRateWorkload>(50));
  rig.hypervisor->CreateVm("b", std::make_unique<FixedRateWorkload>(70));
  for (int t = 0; t < 10; ++t) rig.hypervisor->RunTick();
  EXPECT_EQ(rig.machine->counters(1).llc_accesses, 500u);
  EXPECT_EQ(rig.machine->counters(2).llc_accesses, 700u);
}

TEST(HypervisorTest, BusExhaustionLimitsThroughput) {
  Rig rig(/*bus_slots=*/100);
  rig.hypervisor->CreateVm("hog",
                           std::make_unique<FixedRateWorkload>(500, 100000));
  rig.hypervisor->RunTick();
  // Streaming misses cost 4 slots: at most ~25 can complete.
  EXPECT_LE(rig.machine->counters(1).llc_accesses, 30u);
  EXPECT_GT(rig.machine->counters(1).llc_accesses, 10u);
}

TEST(HypervisorTest, RoundRobinSharesSaturatedBusFairly) {
  Rig rig(/*bus_slots=*/400);
  rig.hypervisor->CreateVm("a",
                           std::make_unique<FixedRateWorkload>(1000, 100000));
  rig.hypervisor->CreateVm("b",
                           std::make_unique<FixedRateWorkload>(1000, 100000));
  for (int t = 0; t < 20; ++t) rig.hypervisor->RunTick();
  const auto a = rig.machine->counters(1).llc_accesses;
  const auto b = rig.machine->counters(2).llc_accesses;
  EXPECT_GT(a, 0u);
  EXPECT_GT(b, 0u);
  const double ratio = static_cast<double>(a) / static_cast<double>(b);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(HypervisorTest, AtomicHogStarvesNormalTenant) {
  // Bus-lock asymmetry at the scheduling level: an atomic spinner plus a
  // normal tenant on a tight bus leaves the normal tenant starved.
  Rig rig(/*bus_slots=*/400);
  rig.hypervisor->CreateVm(
      "victim", std::make_unique<FixedRateWorkload>(200, 64));
  rig.hypervisor->CreateVm(
      "attacker",
      std::make_unique<FixedRateWorkload>(200, 16, /*atomic=*/true));
  for (int t = 0; t < 20; ++t) rig.hypervisor->RunTick();
  const auto victim = rig.machine->counters(1).llc_accesses;
  EXPECT_LT(victim, 200u * 20u / 2u);
}

TEST(HypervisorTest, ThrottleAllExceptPausesOthers) {
  Rig rig;
  const OwnerId prot = rig.hypervisor->CreateVm(
      "prot", std::make_unique<FixedRateWorkload>(10));
  const OwnerId other = rig.hypervisor->CreateVm(
      "other", std::make_unique<FixedRateWorkload>(10));
  rig.hypervisor->ThrottleAllExcept(prot, 5);
  for (int t = 0; t < 5; ++t) rig.hypervisor->RunTick();
  EXPECT_EQ(rig.machine->counters(prot).llc_accesses, 50u);
  EXPECT_EQ(rig.machine->counters(other).llc_accesses, 0u);
  // Throttle expired: the other VM resumes.
  rig.hypervisor->RunTick();
  EXPECT_EQ(rig.machine->counters(other).llc_accesses, 10u);
  EXPECT_FALSE(rig.hypervisor->throttling_active());
}

TEST(HypervisorTest, ThrottleVmPausesExactlyOne) {
  Rig rig;
  rig.hypervisor->CreateVm("a", std::make_unique<FixedRateWorkload>(10));
  rig.hypervisor->CreateVm("b", std::make_unique<FixedRateWorkload>(10));
  rig.hypervisor->CreateVm("c", std::make_unique<FixedRateWorkload>(10));
  rig.hypervisor->ThrottleVm(2, 3);
  EXPECT_TRUE(rig.hypervisor->vm_throttled(2));
  for (int t = 0; t < 3; ++t) rig.hypervisor->RunTick();
  EXPECT_EQ(rig.machine->counters(1).llc_accesses, 30u);
  EXPECT_EQ(rig.machine->counters(2).llc_accesses, 0u);
  EXPECT_EQ(rig.machine->counters(3).llc_accesses, 30u);
  rig.hypervisor->RunTick();
  EXPECT_EQ(rig.machine->counters(2).llc_accesses, 10u);
  EXPECT_FALSE(rig.hypervisor->vm_throttled(2));
}

TEST(HypervisorTest, StoppedVmDoesNotRun) {
  Rig rig;
  const OwnerId id = rig.hypervisor->CreateVm(
      "a", std::make_unique<FixedRateWorkload>(10));
  rig.hypervisor->vm(id).set_state(VmState::kStopped);
  rig.hypervisor->RunTick();
  EXPECT_EQ(rig.machine->counters(id).llc_accesses, 0u);
}

TEST(HypervisorTest, MonitorLoadDefersOps) {
  Rig rig(/*bus_slots=*/100000, /*monitor_load=*/0.10);
  const OwnerId id = rig.hypervisor->CreateVm(
      "a", std::make_unique<FixedRateWorkload>(100));
  rig.hypervisor->AttachMonitor();
  for (int t = 0; t < 100; ++t) rig.hypervisor->RunTick();
  const auto executed = rig.machine->counters(id).llc_accesses;
  EXPECT_LT(executed, 10000u * 93 / 100);
  EXPECT_GT(executed, 10000u * 85 / 100);
  EXPECT_GT(rig.hypervisor->monitor_dropped_ops(), 700u);
}

TEST(HypervisorTest, MonitorDetachStopsLoad) {
  Rig rig(/*bus_slots=*/100000, /*monitor_load=*/0.10);
  const OwnerId id = rig.hypervisor->CreateVm(
      "a", std::make_unique<FixedRateWorkload>(100));
  rig.hypervisor->AttachMonitor();
  rig.hypervisor->DetachMonitor();
  for (int t = 0; t < 50; ++t) rig.hypervisor->RunTick();
  EXPECT_EQ(rig.machine->counters(id).llc_accesses, 5000u);
  EXPECT_EQ(rig.hypervisor->monitor_dropped_ops(), 0u);
}

TEST(HypervisorTest, WorkloadSeesEveryRunnableTick) {
  Rig rig;
  auto workload = std::make_unique<FixedRateWorkload>(1);
  FixedRateWorkload* raw = workload.get();
  rig.hypervisor->CreateVm("a", std::move(workload));
  for (int t = 0; t < 7; ++t) rig.hypervisor->RunTick();
  EXPECT_EQ(raw->ticks_seen(), 7u);
}

// Logs every serviced op as "<owner>.<line offset><h|m|s>" (s: stalled on
// the bus or deferred by the monitor) into a log shared by all VMs, so the
// interleaving the scheduler chose is visible op by op.
class RecordingWorkload final : public Workload {
 public:
  RecordingWorkload(char owner, std::uint32_t rate, bool atomic,
                    std::string* log)
      : owner_(owner), rate_(rate), atomic_(atomic), log_(log) {}

  void Bind(LineAddr base, Rng /*rng*/) override { base_ = base; }
  void BeginTick(Tick /*now*/) override { left_ = rate_; }
  bool NextOp(sim::MemOp& op) override {
    if (left_ == 0) return false;
    --left_;
    op.atomic = atomic_;
    op.addr = base_ + cursor_++;
    return true;
  }
  void OnOutcome(const sim::MemOp& op, sim::AccessOutcome outcome) override {
    static constexpr char kCode[] = {'h', 'm', 's'};
    *log_ += owner_;
    *log_ += '.' + std::to_string(op.addr - base_);
    *log_ += kCode[static_cast<int>(outcome)];
    *log_ += ' ';
  }
  std::uint64_t work_completed() const override { return 0; }
  std::string_view name() const override { return "recording"; }

 private:
  char owner_;
  std::uint32_t rate_;
  bool atomic_;
  std::string* log_;
  LineAddr base_ = 0;
  std::uint32_t left_ = 0;
  std::uint64_t cursor_ = 0;
};

// The cyclic service order (rotating start, chunked rounds, a VM leaving the
// rotation when it runs dry or stalls), the monitor's deferrals and a
// throttled VM rejoining, pinned op by op over eight ticks. The expected
// log was captured from the straightforward modulo-indexed scheduler; any
// reimplementation of RunTick must reproduce it exactly.
TEST(HypervisorTest, ServiceOrderIsPinned) {
  sim::MachineConfig mc;
  mc.cache.sets = 64;
  mc.cache.ways = 4;
  mc.bus.slots_per_tick = 100;
  sim::Machine machine(mc);
  HypervisorConfig hc;
  hc.schedule_chunk = 2;
  hc.monitor_load_fraction = 0.2;
  Hypervisor hv(machine, hc, Rng(11));
  std::string log;
  hv.CreateVm("a", std::make_unique<RecordingWorkload>('1', 1, false, &log));
  hv.CreateVm("b", std::make_unique<RecordingWorkload>('2', 3, false, &log));
  hv.CreateVm("c", std::make_unique<RecordingWorkload>('3', 5, false, &log));
  hv.CreateVm("hog", std::make_unique<RecordingWorkload>('4', 6, true, &log));
  hv.AttachMonitor();
  std::vector<std::string> ticks;
  for (int t = 0; t < 8; ++t) {
    if (t == 3) hv.ThrottleVm(3, 2);
    log.clear();
    hv.RunTick();
    ticks.push_back(log);
  }
  const std::vector<std::string> expected = {
      "2.0m 2.1m 3.0s 3.1s 4.0m 4.1m 1.0m 2.2m 3.2m 3.3s 4.2s 4.3s ",
      "3.4s 3.5m 4.4m 4.5m 1.1s 2.3m 2.4m 3.6m 3.7m 4.6s 2.5s 3.8s ",
      "4.7s 4.8m 1.2m 2.6s 2.7m 3.9m 3.10s 4.9m 4.10s 2.8m 3.11s 3.12m "
      "4.11s 4.12s 3.13s ",
      "2.9m 2.10m 4.13m 4.14s 1.3s 2.11m 4.15m 4.16s ",
      "4.17m 4.18m 1.4m 2.12m 2.13m 4.19s 2.14m ",
      "3.14s 3.15s 4.20m 4.21m 1.5m 2.15m 2.16m 3.16m 3.17m 4.22s 2.17s 3.18s ",
      "4.23m 4.24m 1.6m 2.18m 2.19m 3.19m 3.20m 4.25s 2.20s 3.21s ",
      "1.7m 2.21m 2.22m 3.22m 3.23s 4.26s 4.27m 2.23m 3.24m 3.25m 4.28s 3.26m ",
  };
  EXPECT_EQ(ticks, expected);
}

}  // namespace
}  // namespace sds::vm
