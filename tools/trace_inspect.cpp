// trace_inspect: summarizes a telemetry JSONL stream (telemetry::Telemetry::
// WriteJsonl output, written by benches via --telemetry_out or by
// pcm::WriteTraceJsonl).
//
//   trace_inspect run.jsonl                  per-layer / per-event / metric
//                                            summaries + alarm timeline
//   trace_inspect run.jsonl --layer=detect   restrict event tables to a layer
//   trace_inspect run.jsonl --audit          dump every audit record
//   trace_inspect run.jsonl --events=N       also dump the first N events
//   trace_inspect run.jsonl --svc            per-crash-point service
//                                            recovery rows (svc_ref /
//                                            svc_recovery records)
//   trace_inspect run.jsonl --forensics      per-suspect evidence rows under
//                                            each forensic incident report
//   trace_inspect lint_stats.json --lint     lint-run summary (the
//                                            `sdslint --stats --stats-out`
//                                            payload), with per-rule hits
//   trace_inspect chaos.jsonl --hostchaos    per-transition host up/down
//                                            timeline and per-evacuation rows
//                                            under each host-chaos run
//                                            (bench_hostchaos --trace_out)
//
// The reader (common/json.h) handles exactly the flat one-object-per-line
// JSON this repo emits; it is not a general JSON parser and does not try to
// be. Malformed input NEVER crashes the tool: empty lines, truncated records
// and unknown "type" values are each counted separately and reported in the
// summary, and everything parseable is still summarized.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/types.h"

namespace {

using sds::JsonObject;
using sds::NumOr;
using sds::ParseJsonLine;
using sds::ParseObjectArray;
using sds::StrOr;
using sds::TickClock;

struct LayerSummary {
  std::uint64_t events = 0;
  long long first_tick = -1;
  long long last_tick = -1;
};

struct AuditSummary {
  std::uint64_t records = 0;
  std::uint64_t violations = 0;
  std::uint64_t alarmed = 0;
  double worst_margin = -1e300;
};

// One header-delimited host-chaos run (bench_hostchaos --trace_out writes a
// hostchaos_header line per run, warm then cold, followed by that run's
// host_state / evacuation / handoff records).
struct HostChaosRun {
  JsonObject header;
  std::vector<JsonObject> host_states;
  std::vector<JsonObject> evacuations;
  std::vector<JsonObject> handoffs;
};

// Blind-window histogram bucket label for one handoff's blind_ticks value
// (-1 = still open when the run ended, i.e. censored).
const char* const kBlindBucketNames[] = {"censored", "0",      "1-50",
                                         "51-200",   "201-800", ">800"};
constexpr std::size_t kBlindBuckets = std::size(kBlindBucketNames);

std::size_t BlindBucket(long long blind) {
  if (blind < 0) return 0;
  if (blind == 0) return 1;
  if (blind <= 50) return 2;
  if (blind <= 200) return 3;
  if (blind <= 800) return 4;
  return 5;
}

}  // namespace

int main(int argc, char** argv) {
  sds::Flags flags;
  if (!flags.Parse(argc, argv,
                   {{"layer", "restrict event tables to this layer"},
                    {"audit", "dump every audit record", true},
                    {"events", "also dump the first N matching events"},
                    {"svc", "dump per-crash-point service recovery rows",
                     true},
                    {"forensics",
                     "dump per-suspect evidence under each forensic report",
                     true},
                    {"lint",
                     "dump per-rule hit counts under the lint summary",
                     true},
                    {"hostchaos",
                     "dump host up/down timelines and evacuation rows under "
                     "each host-chaos run",
                     true}})) {
    return flags.help_requested() ? 0 : 1;
  }
  if (flags.positional().size() != 1) {
    std::fprintf(stderr, "usage: trace_inspect <telemetry.jsonl> [--layer=L] "
                         "[--audit] [--events=N]\n");
    return 1;
  }
  const std::string path = flags.positional()[0];
  const std::string layer_filter = flags.GetString("layer", "");
  const bool dump_audit = flags.GetBool("audit", false);
  const bool dump_svc = flags.GetBool("svc", false);
  const bool dump_forensics = flags.GetBool("forensics", false);
  const bool dump_lint = flags.GetBool("lint", false);
  const bool dump_hostchaos = flags.GetBool("hostchaos", false);
  const long long dump_events = flags.GetInt("events", 0);

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_inspect: cannot open %s\n", path.c_str());
    return 1;
  }

  std::map<std::string, LayerSummary> layers;
  std::map<std::string, std::uint64_t> event_counts;  // "layer/event"
  std::map<std::string, AuditSummary> audits;         // "detector/check"
  std::map<std::string, std::uint64_t> fault_events;  // layer=fault, by name
  // check=degrade audit records, keyed "consumer/action".
  std::map<std::string, std::uint64_t> degrade_actions;
  // check=actuation audit records (the MitigationEngine's retry / escalate /
  // verify / rollback steps), keyed by channel; plus the terminal
  // check=mitigation records as an incident timeline.
  std::map<std::string, std::uint64_t> actuation_steps;
  std::vector<JsonObject> mitigation_records;
  std::vector<JsonObject> alarm_timeline;             // alarm events + audits
  std::map<std::string, bool> alarm_state;            // per detector
  std::vector<std::string> metric_lines;
  std::vector<std::string> span_lines;
  std::optional<JsonObject> profile_header;
  std::vector<std::string> event_dump;
  std::uint64_t total_events = 0, total_audits = 0;
  // Input-hygiene accounting: each malformation class counted separately so
  // "my tool said nothing" and "my file is damaged" are distinguishable.
  std::uint64_t empty_lines = 0, bad_lines = 0;
  std::map<std::string, std::uint64_t> unknown_types;
  std::optional<JsonObject> header;
  std::optional<JsonObject> tracer_stats;
  // Streaming-service accounting records (bench_svc_chaos_sweep
  // --accounting_out), mixed into a telemetry stream or inspected alone.
  std::optional<JsonObject> svc_ref;
  std::vector<JsonObject> svc_recoveries;
  // Forensic incident reports (detect::WriteForensicReportJson lines).
  std::vector<JsonObject> forensic_reports;
  // sdslint --stats payload (BENCH_lint / --stats-out): the one record kind
  // without a "type" key, recognized by its field set.
  std::optional<JsonObject> lint_stats;
  // Host-chaos runs (bench_hostchaos --trace_out), header-delimited.
  std::vector<HostChaosRun> hostchaos_runs;

  std::string line;
  long long lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      ++empty_lines;
      continue;
    }
    JsonObject o;
    if (!ParseJsonLine(line, o)) {
      ++bad_lines;
      continue;
    }
    const std::string type = StrOr(o, "type", "");
    if (type == "header") {
      header = o;
    } else if (type == "tracer_stats") {
      tracer_stats = o;
    } else if (type == "event") {
      const std::string layer = StrOr(o, "layer", "?");
      const std::string event = StrOr(o, "event", "?");
      const auto tick = static_cast<long long>(NumOr(o, "tick", -1));
      ++total_events;
      auto& ls = layers[layer];
      ++ls.events;
      if (ls.first_tick < 0) ls.first_tick = tick;
      ls.last_tick = tick;
      if (layer_filter.empty() || layer == layer_filter) {
        ++event_counts[layer + "/" + event];
        if (dump_events > 0 &&
            event_dump.size() < static_cast<std::size_t>(dump_events)) {
          event_dump.push_back(line);
        }
      }
      if (event == "alarm_raised" || event == "alarm_cleared") {
        alarm_timeline.push_back(o);
      }
      if (layer == "fault") ++fault_events[event];
    } else if (type == "audit") {
      ++total_audits;
      const std::string detector = StrOr(o, "detector", "?");
      const bool alarm = StrOr(o, "alarm", "false") == "true";
      auto& as = audits[detector + "/" + StrOr(o, "check", "?")];
      ++as.records;
      if (StrOr(o, "violation", "false") == "true") ++as.violations;
      if (alarm) ++as.alarmed;
      if (o.count("margin") != 0) {
        as.worst_margin = std::max(as.worst_margin, NumOr(o, "margin", -1e300));
      }
      // Audit records survive ring overflow, so reconstruct alarm
      // transitions from them even when the alarm_raised event itself was
      // dropped from the retained event window.
      const auto [state, inserted] = alarm_state.emplace(detector, false);
      if (state->second != alarm) {
        state->second = alarm;
        JsonObject transition = o;
        transition["event"] =
            alarm ? "alarm_raised (audit)" : "alarm_cleared (audit)";
        alarm_timeline.push_back(std::move(transition));
      }
      if (StrOr(o, "check", "") == "degrade") {
        ++degrade_actions[detector + "/" + StrOr(o, "channel", "?")];
      }
      if (StrOr(o, "check", "") == "actuation") {
        ++actuation_steps[StrOr(o, "channel", "?")];
      }
      if (StrOr(o, "check", "") == "mitigation") {
        mitigation_records.push_back(o);
      }
      if (dump_audit) event_dump.push_back(line);
    } else if (type == "metric") {
      metric_lines.push_back(line);
    } else if (type == "profile") {
      profile_header = o;
    } else if (type == "span") {
      span_lines.push_back(line);
    } else if (type == "svc_ref") {
      svc_ref = o;
    } else if (type == "svc_recovery") {
      svc_recoveries.push_back(o);
    } else if (type == "forensic_report") {
      forensic_reports.push_back(o);
    } else if (type == "hostchaos_header") {
      hostchaos_runs.emplace_back();
      hostchaos_runs.back().header = o;
    } else if (type == "host_state" || type == "evacuation" ||
               type == "handoff") {
      // A record before any header (truncated file) still gets summarized
      // under an implicit run.
      if (hostchaos_runs.empty()) hostchaos_runs.emplace_back();
      if (type == "host_state") {
        hostchaos_runs.back().host_states.push_back(std::move(o));
      } else if (type == "evacuation") {
        hostchaos_runs.back().evacuations.push_back(std::move(o));
      } else {
        hostchaos_runs.back().handoffs.push_back(std::move(o));
      }
    } else if (type.empty() && o.count("rule_hits") != 0 &&
               o.count("files_scanned") != 0) {
      lint_stats = o;
    } else {
      // A future writer's record (or corruption that still parses): count it
      // by name, keep going.
      ++unknown_types[type.empty() ? "(missing)" : type];
    }
  }

  const TickClock clock;
  std::printf("telemetry stream: %s\n", path.c_str());
  if (header) {
    std::printf("  emitted=%lld dropped=%lld audit_records=%lld\n",
                static_cast<long long>(NumOr(*header, "events_emitted", 0)),
                static_cast<long long>(NumOr(*header, "events_dropped", 0)),
                static_cast<long long>(NumOr(*header, "audit_records", 0)));
  }
  std::printf("  parsed: %llu events, %llu audit records, %zu metrics, "
              "%zu profiler spans",
              static_cast<unsigned long long>(total_events),
              static_cast<unsigned long long>(total_audits),
              metric_lines.size(), span_lines.size());
  if (empty_lines) {
    std::printf(", %llu empty lines",
                static_cast<unsigned long long>(empty_lines));
  }
  if (bad_lines) {
    std::printf(", %llu unparseable lines",
                static_cast<unsigned long long>(bad_lines));
  }
  std::printf("\n");
  if (!unknown_types.empty()) {
    std::printf("  unknown record types:");
    for (const auto& [name, count] : unknown_types) {
      std::printf(" %s=%llu", name.c_str(),
                  static_cast<unsigned long long>(count));
    }
    std::printf("\n");
  }
  if (tracer_stats) {
    // Ring saturation report: a saturated ring silently discards the oldest
    // events, so say exactly how much history was lost and whose it was.
    const auto dropped =
        static_cast<long long>(NumOr(*tracer_stats, "dropped", 0));
    const auto emitted =
        static_cast<long long>(NumOr(*tracer_stats, "emitted", 0));
    std::printf("\ntracer ring: capacity=%lld retained=%lld emitted=%lld "
                "dropped=%lld",
                static_cast<long long>(NumOr(*tracer_stats, "capacity", 0)),
                static_cast<long long>(NumOr(*tracer_stats, "retained", 0)),
                emitted, dropped);
    if (dropped > 0 && emitted > 0) {
      std::printf(" (%.1f%% of emitted events lost)",
                  100.0 * static_cast<double>(dropped) /
                      static_cast<double>(emitted));
    }
    std::printf("\n");
    if (dropped > 0) {
      std::printf("  dropped by layer:");
      for (const auto& [key, value] : *tracer_stats) {
        if (key.rfind("dropped.", 0) == 0) {
          std::printf(" %s=%s", key.substr(8).c_str(), value.c_str());
        }
      }
      std::printf("\n");
    }
  }

  std::printf("\nper-layer summary\n");
  std::printf("  %-12s %10s %12s %12s\n", "layer", "events", "first-tick",
              "last-tick");
  for (const auto& [name, ls] : layers) {
    std::printf("  %-12s %10llu %12lld %12lld\n", name.c_str(),
                static_cast<unsigned long long>(ls.events), ls.first_tick,
                ls.last_tick);
  }

  std::printf("\nper-event counts%s\n",
              layer_filter.empty() ? ""
                                   : (" (layer=" + layer_filter + ")").c_str());
  for (const auto& [key, count] : event_counts) {
    std::printf("  %-40s %10llu\n", key.c_str(),
                static_cast<unsigned long long>(count));
  }

  if (!audits.empty()) {
    std::printf("\naudit summary (detector/check)\n");
    std::printf("  %-24s %8s %10s %8s %12s\n", "detector/check", "records",
                "violations", "alarmed", "worst-margin");
    for (const auto& [key, as] : audits) {
      std::printf("  %-24s %8llu %10llu %8llu ", key.c_str(),
                  static_cast<unsigned long long>(as.records),
                  static_cast<unsigned long long>(as.violations),
                  static_cast<unsigned long long>(as.alarmed));
      // Degradation audits carry no margin; leave the column blank.
      if (as.worst_margin > -1e300) {
        std::printf("%12.4f\n", as.worst_margin);
      } else {
        std::printf("%12s\n", "-");
      }
    }
  }

  if (!fault_events.empty() || !degrade_actions.empty()) {
    // The monitoring-plane story of the run: what the FaultInjector did to
    // the sample stream, and how the detectors' degradation gates responded.
    std::printf("\nmonitoring-plane faults & degradation\n");
    if (!fault_events.empty()) {
      std::printf("  %-40s %10s\n", "fault-layer event", "count");
      for (const auto& [name, count] : fault_events) {
        std::printf("  %-40s %10llu\n", name.c_str(),
                    static_cast<unsigned long long>(count));
      }
    }
    if (!degrade_actions.empty()) {
      std::printf("  %-40s %10s\n", "degradation (consumer/action)", "count");
      for (const auto& [key, count] : degrade_actions) {
        std::printf("  %-40s %10llu\n", key.c_str(),
                    static_cast<unsigned long long>(count));
      }
    }
  }

  if (!actuation_steps.empty() || !mitigation_records.empty()) {
    // The actuation-plane story: every deviation from the clean dispatch ->
    // settle path (retries, timeouts, escalations, verification verdicts,
    // rollbacks) plus the terminal mitigation record(s). A clean run shows
    // only the mitigation line — any step row means the control plane had
    // to fight.
    std::printf("\nactuation incidents\n");
    for (const auto& [channel, count] : actuation_steps) {
      std::printf("  %-40s %10llu\n", channel.c_str(),
                  static_cast<unsigned long long>(count));
    }
    for (const auto& o : mitigation_records) {
      const auto tick = static_cast<long long>(NumOr(o, "tick", -1));
      std::printf("  t=%8lld (%7.2fs)  mitigation applied: policy=%s%s\n",
                  tick, clock.ToSeconds(tick),
                  StrOr(o, "channel", "?").c_str(),
                  StrOr(o, "violation", "false") == "true"
                      ? " (fallback: attacker unattributed)"
                      : "");
    }
  }

  if (!alarm_timeline.empty()) {
    // Event lines precede audit lines in the stream; interleave by tick.
    std::stable_sort(alarm_timeline.begin(), alarm_timeline.end(),
                     [](const JsonObject& a, const JsonObject& b) {
                       return NumOr(a, "tick", -1) < NumOr(b, "tick", -1);
                     });
    std::printf("\nalarm timeline\n");
    for (const auto& o : alarm_timeline) {
      const auto tick = static_cast<long long>(NumOr(o, "tick", -1));
      std::printf("  t=%8lld (%7.2fs)  %-14s %s", tick,
                  clock.ToSeconds(tick), StrOr(o, "event", "?").c_str(),
                  StrOr(o, "detector", "?").c_str());
      const auto owner = o.find("owner");
      if (owner != o.end()) std::printf(" owner=%s", owner->second.c_str());
      std::printf("\n");
    }
  } else {
    std::printf("\nalarm timeline: (no alarm events)\n");
  }

  if (!forensic_reports.empty()) {
    // Incident forensics: whom the hardware attribution ledger convicts for
    // each alarm, and whether the KStest identification sweep concurred.
    // One line per report; --forensics adds the per-suspect evidence rows.
    std::printf("\nforensic incident reports\n");
    for (const auto& r : forensic_reports) {
      const auto tick = static_cast<long long>(NumOr(r, "alarm_tick", -1));
      std::printf("  t=%8lld (%7.2fs)  ", tick, clock.ToSeconds(tick));
      if (StrOr(r, "attributed", "false") == "true") {
        std::printf("prime suspect VM %lld",
                    static_cast<long long>(NumOr(r, "prime_suspect", 0)));
      } else {
        std::printf("unattributed");
      }
      std::printf("  evidence t=%lld..%lld",
                  static_cast<long long>(NumOr(r, "window_start", -1)),
                  static_cast<long long>(NumOr(r, "window_end", -1)));
      const auto ks = static_cast<long long>(NumOr(r, "kstest_culprit", 0));
      if (ks != 0) {
        std::printf("  kstest=VM %lld (%s)", ks,
                    StrOr(r, "kstest_agrees", "false") == "true"
                        ? "agrees"
                        : "DISAGREES");
      }
      std::printf("\n");
      if (dump_forensics) {
        for (const auto& s : ParseObjectArray(StrOr(r, "suspects", "[]"))) {
          std::printf("    VM %-4lld score=%.3f evictions=%llu "
                      "bus_delay=%llu occupancy=%llu\n",
                      static_cast<long long>(NumOr(s, "vm", 0)),
                      NumOr(s, "score", 0.0),
                      static_cast<unsigned long long>(
                          NumOr(s, "evictions", 0)),
                      static_cast<unsigned long long>(
                          NumOr(s, "bus_delay", 0)),
                      static_cast<unsigned long long>(
                          NumOr(s, "occupancy", 0)));
        }
      }
    }
  }

  if (!span_lines.empty()) {
    // The profiler's aggregated span tree, indented by nesting depth.
    std::printf("\nprofiler span tree");
    if (profile_header) {
      std::printf(" (clock=%s, %lld slices retained, %lld dropped)",
                  StrOr(*profile_header, "clock", "?").c_str(),
                  static_cast<long long>(
                      NumOr(*profile_header, "slices_retained", 0)),
                  static_cast<long long>(
                      NumOr(*profile_header, "slices_dropped", 0)));
    }
    std::printf("\n  %-44s %10s %14s %14s\n", "span", "count", "total",
                "self");
    for (const auto& s : span_lines) {
      JsonObject o;
      if (!ParseJsonLine(s, o)) continue;
      const auto depth = static_cast<int>(NumOr(o, "depth", 0));
      const std::string indent(static_cast<std::size_t>(
                                   std::max(0, std::min(depth, 16))) * 2,
                               ' ');
      std::printf("  %-44s %10lld %14.6g %14.6g\n",
                  (indent + StrOr(o, "name", "?")).c_str(),
                  static_cast<long long>(NumOr(o, "count", 0)),
                  NumOr(o, "total", 0.0), NumOr(o, "self", 0.0));
    }
  }

  if (!metric_lines.empty()) {
    std::printf("\nmetrics snapshot\n");
    for (const auto& m : metric_lines) {
      JsonObject o;
      if (!ParseJsonLine(m, o)) continue;
      std::printf("  %-36s %.6g\n", StrOr(o, "name", "?").c_str(),
                  NumOr(o, "value", 0.0));
    }
  }

  if (svc_ref || !svc_recoveries.empty()) {
    // Streaming-service WAL / recovery / shed accounting. Any recovery row
    // that is not bit-identical means the crash-consistency pin broke.
    std::printf("\nstreaming service accounting\n");
    if (svc_ref) {
      std::printf("  reference: events=%llu admitted=%llu coalesced=%llu "
                  "shed=%llu shed_rate=%.3f\n",
                  static_cast<unsigned long long>(NumOr(*svc_ref, "events", 0)),
                  static_cast<unsigned long long>(
                      NumOr(*svc_ref, "admitted", 0)),
                  static_cast<unsigned long long>(
                      NumOr(*svc_ref, "coalesced", 0)),
                  static_cast<unsigned long long>(NumOr(*svc_ref, "shed", 0)),
                  NumOr(*svc_ref, "shed_rate", 0.0));
      std::printf("  wal_appends=%llu checkpoints=%llu quarantines=%llu "
                  "alarms=%llu decisions=%llu\n",
                  static_cast<unsigned long long>(
                      NumOr(*svc_ref, "wal_appends", 0)),
                  static_cast<unsigned long long>(
                      NumOr(*svc_ref, "checkpoints", 0)),
                  static_cast<unsigned long long>(
                      NumOr(*svc_ref, "quarantines", 0)),
                  static_cast<unsigned long long>(NumOr(*svc_ref, "alarms", 0)),
                  static_cast<unsigned long long>(
                      NumOr(*svc_ref, "decisions", 0)));
    }
    if (!svc_recoveries.empty()) {
      std::uint64_t identical = 0, fired = 0;
      for (const auto& r : svc_recoveries) {
        if (NumOr(r, "bit_identical", 0) != 0.0) ++identical;
        if (NumOr(r, "fired", 0) != 0.0) ++fired;
      }
      std::printf("  recovery: crash_points=%zu fired=%llu "
                  "bit_identical=%llu/%zu%s\n",
                  svc_recoveries.size(),
                  static_cast<unsigned long long>(fired),
                  static_cast<unsigned long long>(identical),
                  svc_recoveries.size(),
                  identical == svc_recoveries.size() ? ""
                                                     : "  ** PIN BROKEN **");
      if (dump_svc) {
        std::printf("  %-24s %8s %6s %6s %10s %9s %8s %14s %9s\n", "kind",
                    "op", "bytes", "fired", "crash-tick", "replayed",
                    "deduped", "wal-stop", "identical");
        for (const auto& r : svc_recoveries) {
          std::printf("  %-24s %8llu %6.2f %6s %10lld %9llu %8llu %14s %9s\n",
                      StrOr(r, "kind", "?").c_str(),
                      static_cast<unsigned long long>(NumOr(r, "op_index", 0)),
                      NumOr(r, "byte_fraction", 0.0),
                      NumOr(r, "fired", 0) != 0.0 ? "yes" : "NO",
                      static_cast<long long>(NumOr(r, "crash_tick", -1)),
                      static_cast<unsigned long long>(NumOr(r, "replayed", 0)),
                      static_cast<unsigned long long>(NumOr(r, "deduped", 0)),
                      StrOr(r, "wal_stop", "?").c_str(),
                      NumOr(r, "bit_identical", 0) != 0.0 ? "yes" : "NO");
        }
      }
    }
  }

  if (lint_stats) {
    // Static-analysis run summary (sdslint --stats --stats-out). cache_hits
    // vs parsed shows whether the warm incremental cache actually held; any
    // stale baseline entry means .sdslint-baseline needs --update-baseline.
    const auto& s = *lint_stats;
    std::printf("\nlint analysis (schema_version=%lld)\n",
                static_cast<long long>(NumOr(s, "schema_version", 0)));
    std::printf("  scanned=%llu files (cache_hits=%llu parsed=%llu)  "
                "functions=%llu call_edges=%llu\n",
                static_cast<unsigned long long>(NumOr(s, "files_scanned", 0)),
                static_cast<unsigned long long>(NumOr(s, "cache_hits", 0)),
                static_cast<unsigned long long>(NumOr(s, "parsed", 0)),
                static_cast<unsigned long long>(NumOr(s, "functions", 0)),
                static_cast<unsigned long long>(NumOr(s, "call_edges", 0)));
    std::printf("  taint: seeds=%llu tainted_functions=%llu\n",
                static_cast<unsigned long long>(NumOr(s, "taint_seeds", 0)),
                static_cast<unsigned long long>(
                    NumOr(s, "tainted_functions", 0)));
    const auto stale =
        static_cast<unsigned long long>(NumOr(s, "stale_baseline_entries", 0));
    std::printf("  findings: diagnostics=%llu baselined=%llu "
                "stale_baseline_entries=%llu suppressions=%llu%s\n",
                static_cast<unsigned long long>(NumOr(s, "diagnostics", 0)),
                static_cast<unsigned long long>(NumOr(s, "baselined", 0)),
                stale,
                static_cast<unsigned long long>(NumOr(s, "suppressions", 0)),
                stale != 0 ? "  ** STALE BASELINE **" : "");
    if (dump_lint) {
      JsonObject hits;
      if (ParseJsonLine(StrOr(s, "rule_hits", "{}"), hits) && !hits.empty()) {
        std::printf("  %-40s %10s\n", "rule", "hits");
        for (const auto& [rule, count] : hits) {
          std::printf("  %-40s %10s\n", rule.c_str(), count.c_str());
        }
      } else {
        std::printf("  (no per-rule hits recorded)\n");
      }
    }
  }

  if (!hostchaos_runs.empty()) {
    // Host-chaos runs (DESIGN.md §17): per run, the host up/down timeline,
    // evacuation convergence, the warm-vs-cold handoff ledger and a
    // blind-window histogram. The bench writes the warm and cold replay of
    // the same cell back to back, so the two runs are directly comparable.
    std::printf("\nhost-chaos runs\n");
    for (std::size_t run = 0; run < hostchaos_runs.size(); ++run) {
      const HostChaosRun& hc = hostchaos_runs[run];
      std::printf("  run %zu: app=%s hosts=%lld handoff=%s attack_start=%lld "
                  "horizon=%lld\n",
                  run, StrOr(hc.header, "app", "?").c_str(),
                  static_cast<long long>(NumOr(hc.header, "hosts", 0)),
                  StrOr(hc.header, "warm_handoff", "?") == "true" ? "warm"
                                                                  : "cold",
                  static_cast<long long>(NumOr(hc.header, "attack_start", -1)),
                  static_cast<long long>(NumOr(hc.header, "horizon", -1)));

      // Host timeline: transition count and per-host down entries.
      std::map<long long, std::uint64_t> downs_by_host;
      for (const auto& t : hc.host_states) {
        const std::string to = StrOr(t, "to", "?");
        if (to == "down" || to == "dead") {
          ++downs_by_host[static_cast<long long>(NumOr(t, "host", -1))];
        }
      }
      std::printf("    host timeline: %zu transitions", hc.host_states.size());
      for (const auto& [host, downs] : downs_by_host) {
        std::printf("  host%lld: %llu down", host,
                    static_cast<unsigned long long>(downs));
      }
      std::printf("\n");
      if (dump_hostchaos) {
        for (const auto& t : hc.host_states) {
          const auto tick = static_cast<long long>(NumOr(t, "tick", -1));
          std::printf("      t=%8lld (%7.2fs)  host %lld  %s -> %s\n", tick,
                      clock.ToSeconds(tick),
                      static_cast<long long>(NumOr(t, "host", -1)),
                      StrOr(t, "from", "?").c_str(),
                      StrOr(t, "to", "?").c_str());
        }
      }

      if (!hc.evacuations.empty()) {
        std::map<std::string, std::uint64_t> outcomes;
        std::uint64_t attempts = 0, duration = 0;
        for (const auto& e : hc.evacuations) {
          ++outcomes[StrOr(e, "outcome", "?")];
          attempts += static_cast<std::uint64_t>(NumOr(e, "attempts", 0));
          duration += static_cast<std::uint64_t>(
              NumOr(e, "finished", 0) - NumOr(e, "tick", 0));
        }
        std::printf("    evacuations: %zu", hc.evacuations.size());
        for (const auto& [outcome, count] : outcomes) {
          std::printf("  %s=%llu", outcome.c_str(),
                      static_cast<unsigned long long>(count));
        }
        std::printf("  mean_attempts=%.1f mean_ticks=%.1f\n",
                    static_cast<double>(attempts) /
                        static_cast<double>(hc.evacuations.size()),
                    static_cast<double>(duration) /
                        static_cast<double>(hc.evacuations.size()));
        if (dump_hostchaos) {
          for (const auto& e : hc.evacuations) {
            const auto tick = static_cast<long long>(NumOr(e, "tick", -1));
            std::printf("      t=%8lld (%7.2fs)  VM %lld  host %lld -> %lld  "
                        "attempts=%lld  %s\n",
                        tick, clock.ToSeconds(tick),
                        static_cast<long long>(NumOr(e, "vm", -1)),
                        static_cast<long long>(NumOr(e, "from_host", -1)),
                        static_cast<long long>(NumOr(e, "to_host", -1)),
                        static_cast<long long>(NumOr(e, "attempts", 0)),
                        StrOr(e, "outcome", "?").c_str());
          }
        }
      }

      if (!hc.handoffs.empty()) {
        std::uint64_t warm = 0;
        std::uint64_t blind_hist[kBlindBuckets] = {};
        for (const auto& h : hc.handoffs) {
          if (StrOr(h, "warm", "false") == "true") ++warm;
          ++blind_hist[BlindBucket(
              static_cast<long long>(NumOr(h, "blind_ticks", -1)))];
        }
        std::printf("    handoffs: %zu (warm=%llu cold=%llu)  blind-window:",
                    hc.handoffs.size(),
                    static_cast<unsigned long long>(warm),
                    static_cast<unsigned long long>(hc.handoffs.size() -
                                                    warm));
        for (std::size_t b = 0; b < kBlindBuckets; ++b) {
          if (blind_hist[b] != 0) {
            std::printf(" [%s]=%llu", kBlindBucketNames[b],
                        static_cast<unsigned long long>(blind_hist[b]));
          }
        }
        std::printf("\n");
        if (dump_hostchaos) {
          for (const auto& h : hc.handoffs) {
            const auto tick = static_cast<long long>(NumOr(h, "tick", -1));
            std::printf("      t=%8lld (%7.2fs)  VM %lld  host %lld -> %lld  "
                        "%s %s %s  blind=%lld\n",
                        tick, clock.ToSeconds(tick),
                        static_cast<long long>(NumOr(h, "vm", -1)),
                        static_cast<long long>(NumOr(h, "from_host", -1)),
                        static_cast<long long>(NumOr(h, "to_host", -1)),
                        StrOr(h, "forced", "false") == "true" ? "forced"
                                                              : "evac",
                        StrOr(h, "warm", "false") == "true" ? "warm" : "cold",
                        StrOr(h, "status", "?").c_str(),
                        static_cast<long long>(NumOr(h, "blind_ticks", -1)));
          }
        }
      }
    }
  }

  if (!event_dump.empty()) {
    std::printf("\ndumped lines\n");
    for (const auto& l : event_dump) std::printf("  %s\n", l.c_str());
  }
  return 0;
}
