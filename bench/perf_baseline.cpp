// Performance regression baseline for the whole detection pipeline.
//
// Steps one eval::DetectionEpisode (kmeans victim, bus-locking attacker,
// combined SDS) with the span profiler on the wall clock around its Step()
// loop only, then emits ONE machine-readable line:
//
//   BENCH_perf {"ticks":6000,"wall_ms":...,"ticks_per_sec":...,
//               "ns_per_cache_access":...,"detector_ns_per_sample":...,
//               "pcm_ns_per_sample":...,"spans":{"vm.tick":{...},...}}
//
// CI greps for the "BENCH_perf {" prefix (a missing line means the harness
// or the profiler broke) and developers diff the numbers across commits.
// Everything before that line is human-oriented context; the profiler's
// subsystem shares answer "WHERE did the regression land" without rerunning
// anything.
//
//   --seconds S    virtual seconds to step, clean half then attacked half
//   --trace_out F  also write a Perfetto/Chrome trace of the run to F
//   --profile_out F  write the full telemetry JSONL (spans included) to F
//
// ns_per_cache_access is measured separately on a bare, telemetry-free
// machine — the same fast path BM_CacheAccess pins — so the line also
// documents that attaching the (disabled) profiler costs nothing there.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <string>

#include "common/flags.h"
#include "common/reporter.h"
#include "eval/experiment.h"
#include "telemetry/perfetto.h"
#include "telemetry/telemetry.h"
#include "telemetry/timeline.h"

namespace {

using namespace sds;

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The BM_CacheAccess loop, inline: a bare machine, no telemetry handle, one
// owner striding through twice the cache's working set.
double MeasureNsPerCacheAccess() {
  sim::MachineConfig config;
  sim::Machine machine(config);
  const std::uint64_t lines =
      static_cast<std::uint64_t>(config.cache.sets) * config.cache.ways * 2;
  constexpr std::uint64_t kAccesses = 4'000'000;
  machine.BeginTick();
  LineAddr addr = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kAccesses; ++i) {
    machine.Access(1, addr);
    addr = (addr + 37) % lines;
    if ((i & 1023u) == 1023u) machine.BeginTick();  // keep the bus refilled
  }
  const double ms = MillisSince(start);
  return ms * 1e6 / static_cast<double>(kAccesses);
}

void PrintSpanEntry(std::string& out, const telemetry::SpanNodeStats& agg,
                    bool first) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s\"%s\":{\"count\":%" PRIu64 ",\"total_ns\":%" PRIu64
                ",\"self_ns\":%" PRIu64 "}",
                first ? "" : ",", agg.name, agg.count, agg.total, agg.self);
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"seconds", "virtual seconds to step, half clean (default 60)"},
           {"seed", "scenario seed"},
           {"trace_out", "write a Perfetto/Chrome trace JSON to this path"},
           {"profile_out", "write full telemetry JSONL to this path"},
           {"json_out", "also write the BENCH_perf JSON to this file"}})) {
    return flags.help_requested() ? 0 : 1;
  }
  const TickClock clock;
  const double seconds = flags.GetDouble("seconds", 60.0);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const Tick run_ticks = clock.ToTicks(seconds);

  // Stage 1 (profile, in its own untraced world) and the traced warm-up run
  // in the constructor, unprofiled: that is setup, not the measurement.
  telemetry::Telemetry telemetry;
  eval::DetectionRunConfig cfg;  // kmeans, bus-lock, combined SDS
  cfg.profile_ticks = clock.ToTicks(120.0);
  cfg.clean_ticks = run_ticks / 2;
  cfg.attack_ticks = run_ticks - cfg.clean_ticks;
  cfg.scenario.machine.telemetry = &telemetry;
  eval::DetectionEpisode episode(cfg, seed);

  // The measured run: every layer instrumented, profiler on.
  telemetry.profiler().Enable(telemetry::ProfileClock::kWall);
  const auto run_start = std::chrono::steady_clock::now();
  while (!episode.done()) episode.Step();
  const double wall_ms = MillisSince(run_start);
  const eval::DetectionRunResult result = episode.Result();

  std::printf("perf baseline: %" PRId64 " ticks (%.0fs virtual) in %.1f ms, "
              "attack %s\n",
              run_ticks, seconds, wall_ms,
              result.detected ? "detected" : "not detected");
  const auto incidents = telemetry::ReconstructIncidents(
      telemetry, {.attack_start = episode.attack_start()});
  telemetry::WriteIncidentReport(std::cout, incidents, telemetry);
  std::cout.flush();

  // The bare cache-access fast path, for the zero-cost-off claim.
  const double ns_per_access = MeasureNsPerCacheAccess();

  const telemetry::SpanNodeStats det =
      telemetry.profiler().AggregateByName("detect.sds.tick");
  const telemetry::SpanNodeStats pcm =
      telemetry.profiler().AggregateByName("pcm.sample");

  std::string spans;
  bool first = true;
  for (const char* name : {"vm.tick", "vm.schedule", "sim.tick", "pcm.sample",
                           "detect.sds.tick", "detect.kstest.tick",
                           "cluster.mitigate"}) {
    const telemetry::SpanNodeStats agg =
        telemetry.profiler().AggregateByName(name);
    if (agg.count == 0) continue;
    PrintSpanEntry(spans, agg, first);
    first = false;
  }

  char payload[4096];
  std::snprintf(
      payload, sizeof payload,
      "{\"ticks\":%" PRId64
      ",\"wall_ms\":%.3f,\"ticks_per_sec\":%.0f,"
      "\"ns_per_cache_access\":%.2f,\"detector_ns_per_sample\":%.0f,"
      "\"pcm_ns_per_sample\":%.0f,\"spans\":{%s}}",
      run_ticks, wall_ms,
      wall_ms > 0.0 ? static_cast<double>(run_ticks) / (wall_ms / 1000.0)
                    : 0.0,
      ns_per_access,
      det.count > 0 ? static_cast<double>(det.total) /
                          static_cast<double>(det.count)
                    : 0.0,
      pcm.count > 0 ? static_cast<double>(pcm.total) /
                          static_cast<double>(pcm.count)
                    : 0.0,
      spans.c_str());
  if (!sds::bench::EmitBenchJson(std::cout, "perf",
                                 flags.GetString("json_out", ""),
                                 [&](std::ostream& os) { os << payload; })) {
    return 1;
  }

  const std::string trace_out = flags.GetString("trace_out", "");
  if (!trace_out.empty()) {
    if (!telemetry::WritePerfettoTraceFile(telemetry, trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("perfetto trace written to %s (open in ui.perfetto.dev or "
                "chrome://tracing)\n",
                trace_out.c_str());
  }
  const std::string profile_out = flags.GetString("profile_out", "");
  if (!profile_out.empty()) {
    if (!telemetry.WriteJsonlFile(profile_out)) {
      std::fprintf(stderr, "cannot write %s\n", profile_out.c_str());
      return 1;
    }
    std::printf("telemetry JSONL written to %s (inspect with "
                "tools/inspect)\n",
                profile_out.c_str());
  }
  return 0;
}
