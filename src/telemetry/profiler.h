// Hierarchical span profiler: where does a simulation second go?
//
// Instrumentation sites register a span name ONCE (at construction, like
// metrics instruments) and then open RAII scoped spans on the hot path. The
// profiler maintains the enter/exit stack, so the same span name opened under
// different parents becomes distinct NODES of a call tree, each accumulating
// count / total time / self time (total minus time spent in child spans) /
// min / max. This is what turns "the run took 4 s" into "62% hypervisor
// scheduling, 21% cache simulation, 9% detector Observe".
//
// Two clock domains:
//   kWall        std::chrono::steady_clock nanoseconds — the real profile;
//   kTickDomain  a deterministic virtual clock that advances by exactly one
//                unit per reading, so span counts, nesting and durations are
//                bit-reproducible under test (a span's duration is then
//                2 + 2*(clock reads made inside it), independent of machine
//                load).
//
// Cost model: the profiler starts DISABLED; a ProfileSpan on a disabled or
// detached profiler is one pointer test and nothing else, which keeps the
// per-tick instrumentation in sim/vm/pcm/detect effectively free (verified by
// BM_CacheAccess staying within noise of the uninstrumented baseline).
//
// Besides the aggregated tree, the profiler can retain individual span
// intervals ("slices") in a bounded drop-oldest ring; these are what the
// Perfetto exporter (telemetry/perfetto.h) turns into nested "X" duration
// events a trace viewer can render.
//
// Not thread-safe, like the rest of the telemetry handle: one profiler per
// single-threaded experiment run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/ring_buffer.h"

namespace sds::telemetry {

// Index into the profiler's span-name table; stable for the profiler's
// lifetime, assigned in registration order.
using SpanId = std::uint32_t;
inline constexpr SpanId kInvalidSpanId = 0xffffffffu;

enum class ProfileClock : std::uint8_t { kWall, kTickDomain };

const char* ProfileClockName(ProfileClock clock);

// One retained span interval, for trace export.
struct SpanSlice {
  SpanId span = kInvalidSpanId;
  std::uint32_t depth = 0;  // nesting depth at entry (root = 0)
  std::uint64_t start = 0;  // clock units (ns in kWall)
  std::uint64_t duration = 0;
};

// Aggregated statistics of one node of the span tree.
struct SpanNodeStats {
  SpanId span = kInvalidSpanId;
  const char* name = "";
  std::int32_t parent = -1;  // node index of the parent, -1 for roots
  std::uint32_t depth = 0;
  std::uint64_t count = 0;
  std::uint64_t total = 0;  // inclusive, clock units
  std::uint64_t self = 0;   // total minus time inside child spans
  std::uint64_t min = 0;
  std::uint64_t max = 0;
};

class SpanProfiler {
 public:
  static constexpr std::size_t kDefaultSliceCapacity = 1 << 15;
  static constexpr std::size_t kMaxDepth = 64;

  explicit SpanProfiler(std::size_t slice_capacity = kDefaultSliceCapacity);

  SpanProfiler(const SpanProfiler&) = delete;
  SpanProfiler& operator=(const SpanProfiler&) = delete;

  // Interns `name` (compared by content, so re-registration from another
  // translation unit returns the same id). Cold path; call at construction.
  SpanId RegisterSpan(const char* name);
  std::size_t registered_spans() const { return names_.size(); }
  const char* span_name(SpanId id) const { return names_[id]; }

  // Must be called with no spans open. Enabling mid-run is fine (profiles
  // the remainder); re-enabling does not reset accumulated statistics.
  void Enable(ProfileClock clock = ProfileClock::kWall);
  void Disable();
  bool enabled() const { return enabled_; }
  ProfileClock clock() const { return clock_; }

  // Individual-interval retention for the Perfetto exporter. On by default;
  // turn off for long runs where only the aggregate tree matters.
  void set_record_slices(bool record) { record_slices_ = record; }
  bool record_slices() const { return record_slices_; }

  // Hot path. Prefer ProfileSpan / SDS_PROFILE_SPAN over calling directly.
  // Enter on a disabled profiler is a no-op; Exit tolerates an empty stack
  // (e.g. after Disable() mid-span), so RAII unwinding is always safe.
  void Enter(SpanId id);
  void Exit();

  std::size_t open_spans() const { return stack_.size(); }

  // The aggregated tree, pre-order (parents before children); node indices
  // in SpanNodeStats::parent refer to positions in this vector.
  std::vector<SpanNodeStats> Snapshot() const;

  // Sums count/total/self over every node with this span name (a span opened
  // under several parents has several nodes). Zero-count stats when the name
  // was never entered.
  SpanNodeStats AggregateByName(const char* name) const;

  // Retained slices, oldest first.
  std::size_t slices_retained() const { return slices_.size(); }
  std::uint64_t slices_dropped() const { return slices_dropped_; }
  const SpanSlice& slice(std::size_t index) const { return slices_[index]; }

  // One JSONL line per tree node:
  //   {"type":"span","name":"vm.tick","node":0,"parent":-1,"depth":0,
  //    "count":1200,"total":...,"self":...,"min":...,"max":...}
  // preceded by a {"type":"profile",...} summary line. No output when the
  // profiler was never enabled.
  void WriteJsonl(std::ostream& os) const;

 private:
  struct Node {
    SpanId span = kInvalidSpanId;
    std::int32_t parent = -1;
    std::vector<std::uint32_t> children;
    std::uint64_t count = 0;
    std::uint64_t total = 0;
    std::uint64_t child_time = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
  };
  struct Frame {
    std::uint32_t node = 0;
    std::uint64_t start = 0;
  };

  std::uint64_t Now();

  bool enabled_ = false;
  bool ever_enabled_ = false;
  bool record_slices_ = true;
  ProfileClock clock_ = ProfileClock::kWall;
  std::uint64_t tick_now_ = 0;  // kTickDomain virtual clock

  std::vector<const char*> names_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> roots_;
  std::vector<Frame> stack_;
  RingBuffer<SpanSlice> slices_;
  std::uint64_t slices_dropped_ = 0;
};

// RAII scoped span. Constructing against a null or disabled profiler costs
// one branch; otherwise Enter/Exit bracket the enclosing scope.
class ProfileSpan {
 public:
  ProfileSpan(SpanProfiler* profiler, SpanId id)
      : profiler_(profiler != nullptr && profiler->enabled() ? profiler
                                                             : nullptr) {
    if (profiler_ != nullptr) profiler_->Enter(id);
  }
  ~ProfileSpan() {
    if (profiler_ != nullptr) profiler_->Exit();
  }
  ProfileSpan(const ProfileSpan&) = delete;
  ProfileSpan& operator=(const ProfileSpan&) = delete;

 private:
  SpanProfiler* profiler_;
};

// One ProfileSpan per instrumentation site, named uniquely per line.
#define SDS_PROFILE_CONCAT_INNER(a, b) a##b
#define SDS_PROFILE_CONCAT(a, b) SDS_PROFILE_CONCAT_INNER(a, b)
#define SDS_PROFILE_SPAN(profiler, id)                 \
  ::sds::telemetry::ProfileSpan SDS_PROFILE_CONCAT(    \
      sds_profile_span_, __LINE__)((profiler), (id))

}  // namespace sds::telemetry
