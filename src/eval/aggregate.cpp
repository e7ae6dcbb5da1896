#include "eval/aggregate.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "common/annotations.h"
#include "common/check.h"
#include "common/types.h"

namespace sds::eval {
namespace {

// First exception thrown by any worker, carried back to the caller. Without
// this, an exception escaping a worker thread is std::terminate — a CHECK
// failure inside one seeded run used to kill the whole sweep process with no
// usable message.
class ErrorSlot {
 public:
  void Capture(std::exception_ptr error) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_) first_ = error;
    }
    armed_.store(true, std::memory_order_relaxed);
  }

  bool armed() const {
    // Relaxed is enough: this is only a scheduling hint; Rethrow holds the
    // lock for the authoritative read.
    return armed_.load(std::memory_order_relaxed);
  }

  void Rethrow() {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_) std::rethrow_exception(first_);
  }

 private:
  std::mutex mu_;
  std::exception_ptr first_ SDS_GUARDED_BY(mu_);
  std::atomic<bool> armed_{false};
};

}  // namespace

void ParallelFor(int n, int threads, const std::function<void(int)>& fn) {
  SDS_CHECK(n >= 0, "negative iteration count");
  if (n == 0) return;
  const int workers = std::max(1, std::min(threads, n));
  if (workers == 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  ErrorSlot error;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        if (error.armed()) return;  // stop claiming work after a failure
        try {
          fn(i);
        } catch (...) {
          error.Capture(std::current_exception());
          return;
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  error.Rethrow();
}

int DefaultThreads(int max_threads) {
  const auto hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(max_threads, hw > 0 ? hw : 4));
}

std::vector<AggregatedDetection> AggregateDetection(
    const std::vector<DetectionRunConfig>& cells, int runs,
    std::uint64_t base_seed, int threads) {
  const std::vector<DetectionRunResult> results =
      RunGrid(cells.size(), runs, threads, [&](std::size_t c, std::size_t r) {
        return RunDetectionRun(cells[c], base_seed + r);
      });

  const auto per_cell = static_cast<std::size_t>(runs);
  std::vector<AggregatedDetection> aggs(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::vector<double> recalls;
    std::vector<double> specificities;
    std::vector<double> delays;
    AggregatedDetection& agg = aggs[c];
    agg.runs = runs;
    for (std::size_t r = 0; r < per_cell; ++r) {
      const DetectionRunResult& result = results[c * per_cell + r];
      recalls.push_back(result.recall());
      specificities.push_back(result.specificity());
      if (result.detected) {
        ++agg.detected_runs;
        delays.push_back(
            static_cast<double>(*result.detection_delay_ticks) *
            kDefaultTpcmSeconds);
      }
    }
    agg.recall = Summarize(recalls);
    agg.specificity = Summarize(specificities);
    if (!delays.empty()) agg.delay_seconds = Summarize(delays);
  }
  return aggs;
}

std::vector<AggregatedOverhead> AggregateOverhead(
    const OverheadRunConfig& config, const std::vector<Scheme>& schemes,
    int runs, std::uint64_t base_seed, int threads) {
  // Cell 0 is the baseline; cell 1 + s is schemes[s].
  const std::vector<Tick> ticks = RunGrid(
      1 + schemes.size(), runs, threads, [&](std::size_t c, std::size_t r) {
        OverheadRunConfig cfg = config;
        cfg.scheme = c == 0 ? Scheme::kNone : schemes[c - 1];
        const OverheadRunResult result = RunOverheadRun(cfg, base_seed + r);
        SDS_CHECK(result.completed,
                  "overhead run hit the tick cap; raise max_ticks");
        return result.completion_ticks;
      });

  const auto per_cell = static_cast<std::size_t>(runs);
  std::vector<AggregatedOverhead> aggs(schemes.size());
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    std::vector<double> ratios;
    for (std::size_t r = 0; r < per_cell; ++r) {
      ratios.push_back(static_cast<double>(ticks[(1 + s) * per_cell + r]) /
                       static_cast<double>(ticks[r]));
    }
    aggs[s].runs = runs;
    aggs[s].normalized_time = Summarize(ratios);
  }
  return aggs;
}

}  // namespace sds::eval
