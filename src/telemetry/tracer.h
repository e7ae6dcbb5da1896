// Structured event tracing with a ring-buffer sink.
//
// Instrumentation sites build a TraceEvent — a fixed-size POD whose keys are
// string LITERALS (no allocation, no formatting on the hot path) — and hand
// it to the tracer, which copies it into a bounded ring. When the ring is
// full the OLDEST event is dropped and a drop counter advances, so tracing
// can stay enabled for arbitrarily long runs at bounded memory; flushing
// serializes the retained window as JSONL:
//
//   {"type":"event","tick":1234,"layer":"sim.bus","event":"lock_window_open",
//    "owner":3,"count":118,"slots":40}
//
// (High-rate sites aggregate before they emit: that line is owner 3's 118
// bus-lock windows of tick 1234, not one window.)
//
// Each layer has an enable bit; a disabled layer's instrumentation reduces
// to one inline mask test, which is what keeps always-compiled tracing
// effectively free when off.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>

#include "common/ring_buffer.h"
#include "common/types.h"

namespace sds::telemetry {

enum class Layer : std::uint8_t {
  kSimMachine = 0,
  kSimCache,
  kSimBus,
  kVm,
  kPcm,
  // Monitoring-plane fault injection and the degradation actions detectors
  // take in response (fault/fault_injector.h, detect/degrade.h).
  kFault,
  kDetect,
  kEval,
  kLayerCount,
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kLayerCount);

// Dotted layer name as it appears in the JSONL ("sim.bus", "detect", ...).
const char* LayerName(Layer layer);

struct TraceEvent {
  Tick tick = 0;
  Layer layer = Layer::kSimMachine;
  // Event name; must point at a string literal (the ring stores the pointer).
  const char* name = nullptr;
  // Owner id the event is attributed to; -1 = not owner-specific.
  std::int64_t owner = -1;

  struct NumField {
    const char* key = nullptr;  // string literal; nullptr = slot unused
    double value = 0.0;
  };
  struct StrField {
    const char* key = nullptr;  // string literal; nullptr = slot unused
    const char* value = nullptr;
  };
  std::array<NumField, 6> nums{};
  std::array<StrField, 2> strs{};

  // Fluent field setters so call sites read as one expression.
  TraceEvent& Num(const char* key, double value);
  TraceEvent& Str(const char* key, const char* value);
};

TraceEvent MakeEvent(Tick tick, Layer layer, const char* name,
                     std::int64_t owner = -1);

class EventTracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit EventTracer(std::size_t capacity = kDefaultCapacity);

  // Per-layer enable flags. All layers start ENABLED: attaching a Telemetry
  // is itself the opt-in, and the flags exist to silence noisy layers.
  bool enabled(Layer layer) const {
    return (enabled_mask_ & (1u << static_cast<unsigned>(layer))) != 0;
  }
  void EnableLayer(Layer layer) {
    enabled_mask_ |= 1u << static_cast<unsigned>(layer);
  }
  void DisableLayer(Layer layer) {
    enabled_mask_ &= ~(1u << static_cast<unsigned>(layer));
  }
  void DisableAllLayers() { enabled_mask_ = 0; }
  void EnableAllLayers() { enabled_mask_ = (1u << kLayerCount) - 1; }

  // Copies the event into the ring (dropping the oldest when full). Call
  // sites should check enabled() first; Emit rechecks so a stray call on a
  // disabled layer is still correct.
  void Emit(const TraceEvent& event);

  std::size_t retained() const { return ring_.size(); }
  std::size_t capacity() const { return ring_.capacity(); }
  std::uint64_t emitted() const { return emitted_; }
  std::uint64_t dropped() const { return dropped_; }
  // Drop accounting by the layer of the EVICTED event: which layer's history
  // the ring overwrote, not which layer's emission forced the eviction. This
  // is what tells you whose events you lost when the ring saturated.
  std::uint64_t dropped_by_layer(Layer layer) const {
    return dropped_by_layer_[static_cast<std::size_t>(layer)];
  }
  // Per-layer emission counts (denominator for drop ratios).
  std::uint64_t emitted_by_layer(Layer layer) const {
    return emitted_by_layer_[static_cast<std::size_t>(layer)];
  }

  // Oldest retained event first; index < retained().
  const TraceEvent& event(std::size_t index) const { return ring_[index]; }

  // Serializes the retained window as JSONL (oldest first) and clears the
  // ring. Returns the number of lines written.
  std::size_t FlushJsonl(std::ostream& os);

  // One {"type":"tracer_stats",...} JSON line: capacity, retained, emitted,
  // dropped, and the nonzero per-layer emitted/dropped breakdown. Written by
  // Telemetry::WriteJsonl so saturated rings are visible in every stream
  // tools/inspect reads.
  void WriteStatsJson(std::ostream& os) const;

 private:
  RingBuffer<TraceEvent> ring_;
  std::uint32_t enabled_mask_;
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;
  std::array<std::uint64_t, kLayerCount> emitted_by_layer_{};
  std::array<std::uint64_t, kLayerCount> dropped_by_layer_{};
};

// Serializes one event as a single JSON object (no trailing newline).
void WriteEventJson(std::ostream& os, const TraceEvent& event);

}  // namespace sds::telemetry
