#include "telemetry/metrics.h"

#include <ostream>

namespace sds::telemetry {

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  const auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return &counters_[it->second];
  counter_index_[name] = counters_.size();
  return &counters_.emplace_back();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  const auto it = gauge_index_.find(name);
  if (it != gauge_index_.end()) return &gauges_[it->second];
  gauge_index_[name] = gauges_.size();
  return &gauges_.emplace_back();
}

void MetricsRegistry::WriteJsonl(std::ostream& os) const {
  for (const auto& [name, idx] : counter_index_) {
    os << "{\"type\":\"metric\",\"metric\":\"counter\",\"name\":\"" << name
       << "\",\"value\":" << counters_[idx].value() << "}\n";
  }
  for (const auto& [name, idx] : gauge_index_) {
    os << "{\"type\":\"metric\",\"metric\":\"gauge\",\"name\":\"" << name
       << "\",\"value\":" << gauges_[idx].value() << "}\n";
  }
}

}  // namespace sds::telemetry
