// Metrics registry: named Counter / Gauge instruments cheap enough for
// per-tick hot paths.
//
// The registry is looked up ONCE, at registration time (typically in a
// constructor); the returned instrument pointer is a plain slot — Add/Set
// are branch-free field updates with no map lookup, no allocation and no
// locking. Instrument pointers stay valid for the registry's lifetime (slots
// live in std::deque, which never relocates elements).
//
// Registering the same name twice returns the SAME instrument, so a
// profile-stage machine and a main-stage machine sharing one Telemetry
// accumulate into one set of counters. The registry is not thread-safe;
// attach one Telemetry per (single-threaded) experiment run.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>

namespace sds::telemetry {

class Counter {
 public:
  void Add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class MetricsRegistry {
 public:
  // Both return a stable pointer; re-registering a name returns the
  // existing instrument.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);

  std::size_t size() const {
    return counters_.size() + gauges_.size();
  }

  // One JSONL line per instrument:
  //   {"type":"metric","metric":"counter","name":...,"value":...}
  void WriteJsonl(std::ostream& os) const;

 private:
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  // name -> index into the matching deque; ordered so WriteJsonl output is
  // deterministic.
  std::map<std::string, std::size_t> counter_index_;
  std::map<std::string, std::size_t> gauge_index_;
};

}  // namespace sds::telemetry
