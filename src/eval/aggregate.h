// Multi-run aggregation: the paper reports the median and 10th/90th
// percentiles over 20 runs for every accuracy/delay/overhead figure. Runs are
// deterministic per seed and independent, so they execute on a thread pool.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

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
// once per seed and every scheme in `schemes` against it, as one ParallelFor over runs x (1 + schemes).
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

}  // namespace sds::eval
