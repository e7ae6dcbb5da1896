// Micro-benchmarks (google-benchmark) for the primitives behind the paper's
// "lightweight" claim: the per-sample cost of the SDS/B pipeline, the
// per-check cost of SDS/P's DFT-ACF, the KS test the baseline runs every
// L_M, and the simulator's cache/bus hot path.
#include <benchmark/benchmark.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "common/rng.h"
#include "detect/boundary.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"
#include "detect/period.h"
#include "signal/acf.h"
#include "signal/fft.h"
#include "signal/moving_average.h"
#include "signal/period_detect.h"
#include "sim/machine.h"
#include "stats/ks_test.h"

namespace {

using namespace sds;

std::vector<double> RandomSeries(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.Normal(100.0, 10.0);
  return v;
}

void BM_BoundaryAnalyzerObserve(benchmark::State& state) {
  detect::BoundaryProfile profile{100.0, 10.0};
  detect::DetectorParams params;
  detect::BoundaryAnalyzer analyzer(profile, params);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.Observe(rng.Normal(100.0, 10.0)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoundaryAnalyzerObserve);

void BM_PeriodAnalyzerObserve(benchmark::State& state) {
  detect::PeriodProfile profile{17.0, 0.8};
  detect::DetectorParams params;
  detect::PeriodAnalyzer analyzer(profile, params);
  Rng rng(2);
  std::size_t t = 0;
  for (auto _ : state) {
    const double v =
        100.0 +
        30.0 * std::sin(2.0 * std::numbers::pi * static_cast<double>(t++) /
                        850.0) +
        rng.Normal(0.0, 5.0);
    benchmark::DoNotOptimize(analyzer.Observe(v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PeriodAnalyzerObserve);

void BM_DftAcfPeriodDetect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<double> x(n);
  for (std::size_t t = 0; t < n; ++t) {
    x[t] = std::sin(2.0 * std::numbers::pi * static_cast<double>(t) / 17.0) +
           0.3 * rng.Normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(DetectPeriod(x));
  }
}
BENCHMARK(BM_DftAcfPeriodDetect)->Arg(34)->Arg(68)->Arg(128)->Arg(512);

void BM_TwoSampleKsTest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomSeries(n, 4);
  const auto b = RandomSeries(n, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TwoSampleKsTest(a, b));
  }
}
BENCHMARK(BM_TwoSampleKsTest)->Arg(100)->Arg(1000);

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = RandomSeries(n, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FftReal(x));
  }
}
BENCHMARK(BM_Fft)->Arg(64)->Arg(256)->Arg(1024)->Arg(100)->Arg(1000);

void BM_AutocorrelationFft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = RandomSeries(n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AutocorrelationFft(x, n / 2));
  }
}
BENCHMARK(BM_AutocorrelationFft)->Arg(64)->Arg(512);

void BM_SlidingWindowAverage(benchmark::State& state) {
  SlidingWindowAverage ma(200, 50);
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ma.Push(rng.Normal(100.0, 10.0)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlidingWindowAverage);

// 64 machine accesses per iteration by one owner, uniform over `region`
// lines.
void CacheAccessLoop(benchmark::State& state, const sim::MachineConfig& cfg,
                     std::uint64_t region) {
  sim::Machine machine(cfg);
  machine.BeginTick();
  Rng rng(9);
  for (auto _ : state) {
    machine.BeginTick();
    for (int i = 0; i < 64; ++i) {
      benchmark::DoNotOptimize(machine.Access(1, rng.UniformInt(region)));
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}

// A 100k-line region against the default 32k-line LLC: almost all misses.
void BM_CacheAccess(benchmark::State& state) {
  CacheAccessLoop(state, sim::MachineConfig{}, 100000);
}
BENCHMARK(BM_CacheAccess);

// The hit path: a 16k-line region fits the LLC, so after warm-up almost
// every access hits.
void BM_CacheAccessHot(benchmark::State& state) {
  CacheAccessLoop(state, sim::MachineConfig{}, 16384);
}
BENCHMARK(BM_CacheAccessHot);

// The same hot path with a telemetry handle attached but the profiler left
// DISABLED (the default) — the documented "observability off" configuration.
// Regression guard for the single-branch cost claim: this must stay within
// noise of BM_CacheAccess.
void BM_CacheAccessInstrumentedOff(benchmark::State& state) {
  telemetry::Telemetry telemetry;
  telemetry.tracer().DisableAllLayers();
  sim::MachineConfig cfg;
  cfg.telemetry = &telemetry;
  CacheAccessLoop(state, cfg, 100000);
}
BENCHMARK(BM_CacheAccessInstrumentedOff);

// Cost of one scoped span on a DISABLED profiler: the branch every
// instrumentation site pays when profiling is off at runtime.
void BM_SpanDisabled(benchmark::State& state) {
  telemetry::SpanProfiler profiler;
  const telemetry::SpanId id = profiler.RegisterSpan("bench.disabled");
  for (auto _ : state) {
    SDS_PROFILE_SPAN(&profiler, id);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanDisabled);

// Cost of one enter/exit pair on an ENABLED profiler (wall clock: two
// steady_clock reads plus tree bookkeeping; this bounds the overhead a
// profiled run adds per instrumented scope).
void BM_SpanEnterExit(benchmark::State& state) {
  telemetry::SpanProfiler profiler;
  const telemetry::SpanId id = profiler.RegisterSpan("bench.enabled");
  profiler.Enable(telemetry::ProfileClock::kWall);
  profiler.set_record_slices(false);
  for (auto _ : state) {
    SDS_PROFILE_SPAN(&profiler, id);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEnterExit);

// As above but retaining slices in the drop-oldest ring (the Perfetto
// export configuration).
void BM_SpanEnterExitWithSlices(benchmark::State& state) {
  telemetry::SpanProfiler profiler;
  const telemetry::SpanId id = profiler.RegisterSpan("bench.sliced");
  profiler.Enable(telemetry::ProfileClock::kWall);
  for (auto _ : state) {
    SDS_PROFILE_SPAN(&profiler, id);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEnterExitWithSlices);

}  // namespace

BENCHMARK_MAIN();
