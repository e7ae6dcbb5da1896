// Multi-run aggregation: the paper reports the median and 10th/90th
// percentiles over 20 runs for every accuracy/delay/overhead figure. Runs are
// deterministic per seed and independent, so they execute on a thread pool.
#pragma once

#include <climits>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "eval/experiment.h"
#include "stats/descriptive.h"

namespace sds::eval {

struct AggregatedDetection {
  PercentileSummary recall;
  PercentileSummary specificity;
  // Detection delay in virtual seconds, over detected runs only.
  PercentileSummary delay_seconds;
  int runs = 0;
  int detected_runs = 0;
};

// Runs `runs` seeded repetitions (seeds base_seed, base_seed+1, ...) of every
// cell, as one ParallelFor over cells x runs on up to `threads` workers.
// Returns one summary per cell, in cell order; each is a pure function of its
// cell and the seeds, so the thread count never changes a value.
std::vector<AggregatedDetection> AggregateDetection(
    const std::vector<DetectionRunConfig>& cells, int runs,
    std::uint64_t base_seed, int threads);

struct AggregatedOverhead {
  // Normalized execution time: scheme completion ticks / baseline (no
  // detection scheme) completion ticks, per seed.
  PercentileSummary normalized_time;
  int runs = 0;
};

// Runs the Scheme::kNone baseline of `config` (whose own `scheme` is ignored)
// once per seed and every scheme in `schemes` against it, as one RunGrid over
// (1 + schemes) x runs.
// Returns one summary per scheme, in scheme order. Every run must finish its
// work before config.max_ticks (SDS_CHECK).
std::vector<AggregatedOverhead> AggregateOverhead(
    const OverheadRunConfig& config, const std::vector<Scheme>& schemes,
    int runs, std::uint64_t base_seed, int threads);

// Simple index-parallel loop used by the aggregators and benches. `threads`
// <= 1 runs inline. fn must be safe to call concurrently for distinct i.
// An exception thrown by fn stops the loop (remaining indices are skipped,
// in-flight ones finish) and is rethrown on the calling thread after every
// worker joins; with multiple concurrent throwers one of them wins.
void ParallelFor(int n, int threads, const std::function<void(int)>& fn);

// Picks a sensible worker count from the hardware, capped by `max_threads`.
int DefaultThreads(int max_threads = 16);

// The one runner behind every seeded sweep: calls job(cell, run) for every
// cell x run as one ParallelFor on up to `threads` workers and returns the
// results as results[cell * runs + run]. The layout is fixed, so folding the
// results in order never depends on the thread count. job must be safe to
// call concurrently for distinct (cell, run) pairs.
template <typename Job>
auto RunGrid(std::size_t cells, int runs, int threads, const Job& job) {
  SDS_CHECK(runs >= 1, "need at least one run per cell");
  const auto per_cell = static_cast<std::size_t>(runs);
  std::vector<std::invoke_result_t<const Job&, std::size_t, std::size_t>>
      results(cells * per_cell);
  SDS_CHECK(results.size() <= static_cast<std::size_t>(INT_MAX),
            "grid too large for one ParallelFor");
  ParallelFor(static_cast<int>(results.size()), threads, [&](int i) {
    const auto slot = static_cast<std::size_t>(i);
    results[slot] = job(slot / per_cell, slot % per_cell);
  });
  return results;
}

// One cell of a fault-kind x rate sweep.
template <typename Kind>
struct FaultCell {
  Kind kind{};
  double rate = 0.0;  // 0 = the fault-free baseline cell
};

// The grid of the robustness and actuation sweeps: the fault-free baseline
// cell first (kind 0, rate 0), then every kind at every rate, kind-major.
template <typename Kind>
std::vector<FaultCell<Kind>> FaultGrid(const std::vector<Kind>& kinds,
                                       const std::vector<double>& rates) {
  SDS_CHECK(!kinds.empty() && !rates.empty(), "empty sweep grid");
  std::vector<FaultCell<Kind>> grid(1);
  for (const Kind kind : kinds) {
    for (const double rate : rates) {
      SDS_CHECK(rate > 0.0 && rate <= 1.0,
                "sweep rates must be probabilities > 0");
      grid.push_back({kind, rate});
    }
  }
  return grid;
}

}  // namespace sds::eval
