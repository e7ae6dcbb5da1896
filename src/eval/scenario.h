// Scenario construction: the paper's standard deployment (Section 5.1) — one
// victim VM running a catalog application, one attack VM, and seven benign
// VMs running light utilities, all sharing one simulated server.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "attacks/bus_lock_attacker.h"
#include "attacks/llc_cleansing_attacker.h"
#include "common/types.h"
#include "sim/machine.h"
#include "vm/hypervisor.h"

namespace sds::eval {

enum class AttackKind : std::uint8_t { kNone, kBusLock, kLlcCleansing };

const char* AttackName(AttackKind kind);

// Names of the catalog applications, in catalog order: the values a
// binary's --app flag accepts.
std::vector<std::string> AppNames();

struct ScenarioConfig {
  // Catalog application on the victim VM.
  std::string app = "kmeans";
  AttackKind attack = AttackKind::kNone;
  // Ticks at which the attack program starts/stops; stop < 0 = never stops.
  Tick attack_start = 0;
  Tick attack_stop = -1;
  // Optional second, colluding attack VM (the attribution sweep's two-
  // attacker cell). Starts independently of the first and never stops.
  AttackKind attack2 = AttackKind::kNone;
  Tick attack2_start = 0;
  // Number of benign co-tenant VMs (paper: 7).
  int benign_vms = 7;
  std::uint64_t seed = 1;

  sim::MachineConfig machine;
  vm::HypervisorConfig hypervisor;
  attacks::BusLockConfig bus_lock;
  // Cache geometry fields are overwritten from `machine` at build time.
  attacks::LlcCleansingConfig cleansing;
};

// A built scenario. The machine must outlive the hypervisor; both are owned
// here. `attacker` is 0 when the scenario has no attack VM; `attacker2` is 0
// unless config.attack2 requested the colluding second attack VM.
struct Scenario {
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<vm::Hypervisor> hypervisor;
  OwnerId victim = 0;
  OwnerId attacker = 0;
  OwnerId attacker2 = 0;

  void RunTicks(Tick n) {
    for (Tick t = 0; t < n; ++t) hypervisor->RunTick();
  }
};

// Builds the full deployment. With attack != kNone the attack VM exists from
// the start (co-located, idle) and its program activates at attack_start.
Scenario BuildScenario(const ScenarioConfig& config);

}  // namespace sds::eval
