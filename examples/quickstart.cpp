// Quickstart: the smallest end-to-end use of the library.
//
//   1. Start one detection episode (eval::DetectionEpisode): it profiles
//      the victim while known clean, then builds the standard cloud
//      deployment (victim + attacker + 7 benign VMs) with SDS attached.
//   2. Step it: 60 s clean, then a bus locking attack — watch the alarm.
//   3. Read the detector's decision audit trail back out of the attached
//      telemetry handle (the same data --telemetry_out + tools/inspect use),
//      and reconstruct the incident timeline: attack -> first check ->
//      violation streak -> alarm, with the detection delay decomposed.
//   4. With the hardware attribution ledger enabled, ask the forensics
//      engine WHO did it: the alarm collapses the evidence window into a
//      ranked-suspect forensic report (DESIGN.md section 15).
//
// Build & run:  ./build/examples/quickstart
//               ./build/examples/quickstart --trace_out quickstart_trace.json
// The optional --trace_out writes a Chrome/Perfetto trace of the whole run
// (open in ui.perfetto.dev) with one track per telemetry layer plus the
// profiler's span slices.
#include <cstdio>
#include <iostream>
#include <string>

#include "common/flags.h"
#include "detect/forensics.h"
#include "eval/experiment.h"
#include "telemetry/perfetto.h"
#include "telemetry/telemetry.h"
#include "telemetry/timeline.h"

int main(int argc, char** argv) {
  using namespace sds;
  Flags flags;
  if (!flags.Parse(argc, argv,
                   {{"trace_out",
                     "write a Perfetto/Chrome trace JSON of the run here"}})) {
    return flags.help_requested() ? 0 : 1;
  }
  const std::string trace_out = flags.GetString("trace_out", "");
  const TickClock clock;  // 1 tick = T_PCM = 0.01 s of virtual time

  // One telemetry handle for the whole run: attaching it to the machine
  // config is the only wiring observability needs. The span profiler rides
  // on the same handle; enabling it here times every instrumented layer.
  telemetry::Telemetry telemetry;
  telemetry.profiler().Enable(telemetry::ProfileClock::kWall);

  // -- The episode: attack VM co-located, attack launches after 60 s clean.
  eval::DetectionRunConfig cfg;  // defaults: k-means, bus-lock, SDS (Table 1)
  cfg.profile_ticks = clock.ToTicks(120.0);
  cfg.clean_ticks = clock.ToTicks(60.0);
  cfg.attack_ticks = clock.ToTicks(60.0);
  cfg.scenario.machine.telemetry = &telemetry;
  // Tag inter-VM evictions and bus stalls with their culprit so the alarm
  // below can be attributed from hardware evidence (off by default; the
  // ledger never perturbs simulated timing, only records it).
  cfg.scenario.machine.attribution = true;
  eval::DetectionEpisode episode(cfg, /*seed=*/42);  // profiles, then deploys
  const detect::SdsProfile& profile = episode.profile();
  std::printf("profiled %s: AccessNum mu=%.0f sigma=%.0f, periodic=%s\n",
              cfg.app.c_str(), profile.access_boundary.mean,
              profile.access_boundary.stddev,
              profile.periodic() ? "yes" : "no");
  eval::Scenario& scenario = episode.scenario();
  detect::ForensicsEngine forensics(*scenario.hypervisor, scenario.victim);

  // -- Run 120 s and report the first alarm. -------------------------------
  Tick alarm_tick = kInvalidTick;
  while (!episode.done()) {
    episode.Step();
    forensics.OnTick();
    if (alarm_tick == kInvalidTick && episode.detector().attack_active()) {
      alarm_tick = scenario.hypervisor->now();
      forensics.OnAlarm(alarm_tick);
    }
  }
  const eval::DetectionRunResult result = episode.Result();

  if (alarm_tick == kInvalidTick || !result.detected) {
    std::printf("no alarm raised — unexpected, check the configuration\n");
    return 1;
  }
  const Tick attack_start = episode.attack_start();
  std::printf(
      "attack launched at t=%.0fs; SDS raised the alarm at t=%.1fs "
      "(detection delay %.1fs)\n",
      clock.ToSeconds(attack_start), clock.ToSeconds(alarm_tick),
      clock.ToSeconds(*result.detection_delay_ticks));

  // -- Why did it fire? Ask the audit log for the decisive check. ----------
  for (const auto& rec : telemetry.audit().records()) {
    if (!rec.alarm || !rec.violation || rec.tick != alarm_tick) continue;
    std::printf(
        "decisive %s %s check on %s: value %.0f outside [%.0f, %.0f] "
        "by %.2f sigma-margins, %d consecutive violations\n",
        rec.detector, rec.check, rec.channel, rec.value, rec.lower, rec.upper,
        rec.margin, rec.consecutive);
    break;
  }

  // -- And WHO: the hardware attribution ledger's verdict. -----------------
  if (!forensics.reports().empty()) {
    detect::WriteForensicReportText(std::cout, forensics.reports().front());
    std::cout.flush();
  }

  // -- And WHEN: the reconstructed incident timeline with the detection
  // delay split into sampling wait / detector compute / debounce. ----------
  const auto incidents = telemetry::ReconstructIncidents(
      telemetry, {.attack_start = attack_start});
  telemetry::WriteIncidentReport(std::cout, incidents, telemetry);
  std::cout.flush();

  std::printf(
      "(%llu events traced, %zu decisions audited; a full JSONL stream of "
      "this is what bench --telemetry_out writes)\n",
      static_cast<unsigned long long>(telemetry.tracer().emitted()),
      telemetry.audit().size());

  if (!trace_out.empty()) {
    if (!telemetry::WritePerfettoTraceFile(telemetry, trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("perfetto trace written to %s (open in ui.perfetto.dev or "
                "chrome://tracing)\n",
                trace_out.c_str());
  }
  return 0;
}
