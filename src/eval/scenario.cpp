#include "eval/scenario.h"

#include "attacks/scheduled_workload.h"
#include "common/check.h"
#include "workloads/catalog.h"

namespace sds::eval {

const char* AttackName(AttackKind kind) {
  switch (kind) {
    case AttackKind::kNone:
      return "none";
    case AttackKind::kBusLock:
      return "bus-lock";
    case AttackKind::kLlcCleansing:
      return "llc-cleansing";
  }
  return "?";
}

std::vector<std::string> AppNames() {
  std::vector<std::string> names;
  for (const workloads::AppInfo& info : workloads::AppCatalog()) {
    names.push_back(info.name);
  }
  return names;
}

Scenario BuildScenario(const ScenarioConfig& config) {
  SDS_CHECK(workloads::IsKnownApp(config.app), "unknown application");
  SDS_CHECK(config.benign_vms >= 0, "benign VM count must be non-negative");

  auto make_program = [&config](AttackKind kind) {
    std::unique_ptr<vm::Workload> program;
    if (kind == AttackKind::kBusLock) {
      program = std::make_unique<attacks::BusLockAttacker>(config.bus_lock);
    } else {
      attacks::LlcCleansingConfig cc = config.cleansing;
      cc.cache_sets = config.machine.cache.sets;
      cc.cache_ways = config.machine.cache.ways;
      program = std::make_unique<attacks::LlcCleansingAttacker>(cc);
    }
    return program;
  };

  Scenario s;
  s.machine = std::make_unique<sim::Machine>(config.machine);
  Rng root(config.seed);
  s.hypervisor = std::make_unique<vm::Hypervisor>(
      *s.machine, config.hypervisor, root.Fork());

  // Victim first (stable owner id 1 across scenarios).
  s.victim = s.hypervisor->CreateVm("victim-" + config.app,
                                    workloads::MakeApp(config.app));

  if (config.attack != AttackKind::kNone) {
    s.attacker = s.hypervisor->CreateVm(
        "attacker", std::make_unique<attacks::ScheduledWorkload>(
                        make_program(config.attack), config.attack_start,
                        config.attack_stop));
  }

  if (config.attack2 != AttackKind::kNone) {
    s.attacker2 = s.hypervisor->CreateVm(
        "attacker2", std::make_unique<attacks::ScheduledWorkload>(
                         make_program(config.attack2), config.attack2_start,
                         -1));
  }

  for (int i = 0; i < config.benign_vms; ++i) {
    s.hypervisor->CreateVm("benign-" + std::to_string(i),
                           workloads::MakeBenignUtility());
  }
  return s;
}

}  // namespace sds::eval
