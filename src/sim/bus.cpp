#include "sim/bus.h"

namespace sds::sim {

MemoryBus::MemoryBus(const BusConfig& config)
    : config_(config), remaining_(config.slots_per_tick) {}

void MemoryBus::BeginTick() {
  remaining_ = config_.slots_per_tick;
  saturation_recorded_ = false;
}

}  // namespace sds::sim
