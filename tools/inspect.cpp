// inspect: summarizes any JSONL stream this repo writes. One read loop
// dispatches each record on its "type" into a record family, and a family's
// section prints only when the stream held a record of that family:
//
//   telemetry   header / event / audit / metric / tracer_stats / profile /
//               span (a bench's --telemetry_out or --profile_out)
//   fleet       rollup / rollup_stats / slo_alert / slo_status
//               (bench_fleetobs --rollup_out)
//   svc         svc_ref / svc_recovery (bench_svc_chaos_sweep
//               --accounting_out)
//   forensics   forensic_report (bench_attrib_sweep --forensics_out)
//   host chaos  hostchaos_header / host_state / evacuation / handoff
//               (bench_hostchaos --trace_out)
//   lint        the sdslint --stats-out payload (no "type" key; recognized
//               by its field set)
//
//   inspect <stream.jsonl> [--flags]   (--help lists the detail flags)
//
// The reader (common/json.h) handles exactly the flat one-object-per-line
// JSON this repo emits; it is not a general JSON parser and does not try to
// be. Malformed input NEVER crashes the tool: empty lines, truncated records
// (and records whose integer fields are out of range) and unknown "type"
// values are each counted separately and reported in the stream header, and
// everything parseable is still summarized.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/types.h"

namespace {

using sds::FormatFixed;
using sds::JsonObject;
using sds::NumOr;
using sds::ParseJsonLine;
using sds::ParseObjectArray;
using sds::StrOr;
using sds::TextTable;
using sds::TickClock;

struct Options {
  std::string layer;
  bool audit = false;
  std::size_t events = 0;
  bool svc = false;
  bool forensics = false;
  bool lint = false;
  bool hostchaos = false;
  std::string metric;
  std::size_t top = 10;
  std::size_t alerts = 0;
};

// Every field a table prints as an integer. Counts are never negative;
// ticks, ids and windows are signed because the writers use -1 for "none".
const std::set<std::string> kSignedFields = {
    "alarm_tick", "attack_start", "blind_ticks", "crash_tick", "from_host",
    "horizon", "kstest_culprit", "prime_suspect", "schema_version", "tick",
    "to_host", "vm", "window", "window_end", "window_start"};
const std::set<std::string> kCountFields = {
    "admitted", "alarms", "attempts", "audit_records", "bus_delay",
    "call_edges", "capacity", "checkpoints", "coalesced", "count", "decisions",
    "deduped", "depth", "diagnostics", "dropped", "dropped_late",
    "dropped_samples", "dropped_series", "emitted", "events", "events_dropped",
    "events_emitted", "evictions", "files_scanned", "functions", "host",
    "hosts", "ingested", "live_series", "occupancy", "op_index", "parsed",
    "quarantines", "replayed", "retained", "rows", "shards", "shed",
    "slices_dropped", "slices_retained", "suppressions", "taint_seeds",
    "tainted_functions", "tenant", "violating", "wal_appends", "window_ticks",
    "windows"};

// The one conversion from a JSON number to a printed integer: nullopt
// unless `v` is finite, inside long long's range and, for a count, not
// negative. (A bare cast of such a value is undefined behaviour.)
std::optional<long long> ToInteger(double v, bool count) {
  if (!(v >= (count ? 0.0 : -0x1p63) && v < 0x1p63)) return std::nullopt;
  return static_cast<long long>(v);
}

// True when every integer field of `o`, and of each object in its object
// arrays, converts. A line that fails is counted as unparseable, so no
// table ever sees its numbers.
bool IntegersInRange(const JsonObject& o) {
  for (const auto& [key, raw] : o) {
    if (raw.starts_with('[')) {
      for (const JsonObject& e : ParseObjectArray(raw)) {
        if (!IntegersInRange(e)) return false;
      }
      continue;
    }
    const bool count = kCountFields.count(key) != 0;
    if (!count && kSignedFields.count(key) == 0) continue;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    if (!ToInteger(NumOr(o, key, nan), count)) return false;
  }
  return true;
}

unsigned long long Count(const JsonObject& o, const std::string& key,
                         double fallback = 0) {
  return static_cast<unsigned long long>(
      ToInteger(NumOr(o, key, fallback), true).value_or(0));
}
long long Int(const JsonObject& o, const std::string& key,
              long long fallback) {
  return ToInteger(NumOr(o, key, static_cast<double>(fallback)), false)
      .value_or(fallback);
}
bool IsTrue(const JsonObject& o, const std::string& key) {
  return StrOr(o, key, "false") == "true";
}

const TickClock kClock;

// One "name count" row per entry: the layout every count table shares.
void PrintCounts(const std::map<std::string, unsigned long long>& counts) {
  for (const auto& [name, count] : counts) {
    std::printf("  %-40s %10llu\n", name.c_str(), count);
  }
}

// --- telemetry -------------------------------------------------------------

struct LayerSummary {
  unsigned long long events = 0;
  long long first_tick = -1;
  long long last_tick = -1;
};

struct AuditSummary {
  unsigned long long records = 0;
  unsigned long long violations = 0;
  unsigned long long alarmed = 0;
  double worst_margin = -1e300;
};

struct Telemetry {
  bool seen = false;
  std::map<std::string, LayerSummary> layers;
  std::map<std::string, unsigned long long> event_counts;  // "layer/event"
  std::map<std::string, AuditSummary> audits;  // "detector/check"
  // layer=fault events, by name.
  std::map<std::string, unsigned long long> fault_events;
  // check=degrade audit records, keyed "consumer/action".
  std::map<std::string, unsigned long long> degrade_actions;
  // check=actuation audit records (the MitigationEngine's retry / escalate /
  // verify steps), keyed by channel; plus the terminal
  // check=mitigation records as an incident timeline.
  std::map<std::string, unsigned long long> actuation_steps;
  std::vector<JsonObject> mitigation_records;
  std::vector<JsonObject> alarm_timeline;  // alarm events + audits
  std::map<std::string, bool> alarm_state;  // per detector
  std::vector<JsonObject> metrics;
  std::vector<JsonObject> spans;
  std::optional<JsonObject> profile_header;
  std::vector<std::string> event_dump;
  unsigned long long total_events = 0, total_audits = 0;
  std::optional<JsonObject> header;
  std::optional<JsonObject> tracer_stats;

  bool Add(const std::string& type, const JsonObject& o,
           const std::string& line, const Options& opt);
  void Print(const Options& opt) const;
};

bool Telemetry::Add(const std::string& type, const JsonObject& o,
                    const std::string& line, const Options& opt) {
  if (type == "header") {
    header = o;
  } else if (type == "tracer_stats") {
    tracer_stats = o;
  } else if (type == "event") {
    const std::string layer = StrOr(o, "layer", "?");
    const std::string event = StrOr(o, "event", "?");
    const long long tick = Int(o, "tick", -1);
    ++total_events;
    auto& ls = layers[layer];
    ++ls.events;
    if (ls.first_tick < 0) ls.first_tick = tick;
    ls.last_tick = tick;
    if (opt.layer.empty() || layer == opt.layer) {
      // An aggregate event (the sim layer's per-tick cross_owner_eviction /
      // lock_window_open) stands for "count" occurrences; others for one.
      event_counts[layer + "/" + event] += Count(o, "count", 1);
      if (event_dump.size() < opt.events) event_dump.push_back(line);
    }
    if (event == "alarm_raised" || event == "alarm_cleared") {
      alarm_timeline.push_back(o);
    }
    if (layer == "fault") ++fault_events[event];
  } else if (type == "audit") {
    ++total_audits;
    const std::string detector = StrOr(o, "detector", "?");
    const std::string check = StrOr(o, "check", "?");
    const bool alarm = IsTrue(o, "alarm");
    auto& as = audits[detector + "/" + check];
    ++as.records;
    if (IsTrue(o, "violation")) ++as.violations;
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
    if (check == "degrade") {
      ++degrade_actions[detector + "/" + StrOr(o, "channel", "?")];
    }
    if (check == "actuation") ++actuation_steps[StrOr(o, "channel", "?")];
    if (check == "mitigation") mitigation_records.push_back(o);
    if (opt.audit) event_dump.push_back(line);
  } else if (type == "metric") {
    metrics.push_back(o);
  } else if (type == "profile") {
    profile_header = o;
  } else if (type == "span") {
    spans.push_back(o);
  } else {
    return false;
  }
  seen = true;
  return true;
}

// Continues the stream header block (the emitted / parsed lines), then
// prints the telemetry sections.
void Telemetry::Print(const Options& opt) const {
  if (header) {
    std::printf("  emitted=%lld dropped=%lld audit_records=%lld\n",
                Int(*header, "events_emitted", 0),
                Int(*header, "events_dropped", 0),
                Int(*header, "audit_records", 0));
  }
  std::printf("  parsed: %llu events, %llu audit records, %zu metrics, "
              "%zu profiler spans\n",
              total_events, total_audits, metrics.size(), spans.size());

  if (tracer_stats) {
    // Ring saturation report: a saturated ring silently discards the oldest
    // events, so say exactly how much history was lost and whose it was.
    const long long dropped = Int(*tracer_stats, "dropped", 0);
    const long long emitted = Int(*tracer_stats, "emitted", 0);
    std::printf("\ntracer ring: capacity=%lld retained=%lld emitted=%lld "
                "dropped=%lld",
                Int(*tracer_stats, "capacity", 0),
                Int(*tracer_stats, "retained", 0), emitted, dropped);
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
    std::printf("  %-12s %10llu %12lld %12lld\n", name.c_str(), ls.events,
                ls.first_tick, ls.last_tick);
  }

  std::printf("\nper-event counts%s\n",
              opt.layer.empty() ? "" : (" (layer=" + opt.layer + ")").c_str());
  PrintCounts(event_counts);

  if (!audits.empty()) {
    std::printf("\naudit summary (detector/check)\n");
    std::printf("  %-24s %8s %10s %8s %12s\n", "detector/check", "records",
                "violations", "alarmed", "worst-margin");
    for (const auto& [key, as] : audits) {
      std::printf("  %-24s %8llu %10llu %8llu ", key.c_str(), as.records,
                  as.violations, as.alarmed);
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
      PrintCounts(fault_events);
    }
    if (!degrade_actions.empty()) {
      std::printf("  %-40s %10s\n", "degradation (consumer/action)", "count");
      PrintCounts(degrade_actions);
    }
  }

  if (!actuation_steps.empty() || !mitigation_records.empty()) {
    // The actuation-plane story: every deviation from the clean dispatch ->
    // settle path (retries, timeouts, escalations, verification verdicts)
    // plus the terminal mitigation record(s). A clean run shows
    // only the mitigation line — any step row means the control plane had
    // to fight.
    std::printf("\nactuation incidents\n");
    PrintCounts(actuation_steps);
    for (const auto& o : mitigation_records) {
      const long long tick = Int(o, "tick", -1);
      std::printf("  t=%8lld (%7.2fs)  mitigation applied: policy=%s%s\n",
                  tick, kClock.ToSeconds(tick),
                  StrOr(o, "channel", "?").c_str(),
                  IsTrue(o, "violation") ? " (fallback: attacker unattributed)"
                                         : "");
    }
  }

  if (!alarm_timeline.empty()) {
    // Event lines precede audit lines in the stream; interleave by tick.
    std::vector<JsonObject> timeline = alarm_timeline;
    std::stable_sort(timeline.begin(), timeline.end(),
                     [](const JsonObject& a, const JsonObject& b) {
                       return NumOr(a, "tick", -1) < NumOr(b, "tick", -1);
                     });
    std::printf("\nalarm timeline\n");
    for (const auto& o : timeline) {
      const long long tick = Int(o, "tick", -1);
      std::printf("  t=%8lld (%7.2fs)  %-14s %s", tick,
                  kClock.ToSeconds(tick), StrOr(o, "event", "?").c_str(),
                  StrOr(o, "detector", "?").c_str());
      const auto owner = o.find("owner");
      if (owner != o.end()) std::printf(" owner=%s", owner->second.c_str());
      std::printf("\n");
    }
  } else {
    std::printf("\nalarm timeline: (no alarm events)\n");
  }

  if (!spans.empty()) {
    // The profiler's aggregated span tree, indented by nesting depth.
    std::printf("\nprofiler span tree");
    if (profile_header) {
      std::printf(" (clock=%s, %lld slices retained, %lld dropped)",
                  StrOr(*profile_header, "clock", "?").c_str(),
                  Int(*profile_header, "slices_retained", 0),
                  Int(*profile_header, "slices_dropped", 0));
    }
    std::printf("\n  %-44s %10s %14s %14s\n", "span", "count", "total",
                "self");
    for (const auto& o : spans) {
      const long long depth = std::clamp(Int(o, "depth", 0), 0LL, 16LL);
      const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
      std::printf("  %-44s %10lld %14.6g %14.6g\n",
                  (indent + StrOr(o, "name", "?")).c_str(), Int(o, "count", 0),
                  NumOr(o, "total", 0.0), NumOr(o, "self", 0.0));
    }
  }

  if (!metrics.empty()) {
    std::printf("\nmetrics snapshot\n");
    for (const auto& o : metrics) {
      std::printf("  %-36s %.6g\n", StrOr(o, "name", "?").c_str(),
                  NumOr(o, "value", 0.0));
    }
  }

  if (!event_dump.empty()) {
    std::printf("\ndumped lines\n");
    for (const auto& l : event_dump) std::printf("  %s\n", l.c_str());
  }
}

// --- fleet rollup + SLO ----------------------------------------------------

// Fleet aggregate of one rollup series across all its rows: per metric for
// the health table, per (host, tenant) of the --metric series for ranking.
struct SeriesHealth {
  unsigned long long rows = 0;
  unsigned long long count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double worst_p95 = 0.0;
  double worst_p99 = 0.0;
  long long worst_window = 0;  // where worst_p95 was first reached
  long long first_window = 0;
  long long last_window = 0;

  void Add(const JsonObject& row) {
    const double row_min = NumOr(row, "min", 0.0);
    const double row_max = NumOr(row, "max", 0.0);
    const long long window = Int(row, "window", 0);
    if (rows == 0) {
      min = row_min;
      max = row_max;
      first_window = last_window = window;
    } else {
      min = std::min(min, row_min);
      max = std::max(max, row_max);
      first_window = std::min(first_window, window);
      last_window = std::max(last_window, window);
    }
    ++rows;
    count += Count(row, "count");
    sum += NumOr(row, "sum", 0.0);
    const double p95 = NumOr(row, "p95", 0.0);
    if (p95 > worst_p95) {
      worst_p95 = p95;
      worst_window = window;
    }
    worst_p99 = std::max(worst_p99, NumOr(row, "p99", 0.0));
  }

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

using TenantKey = std::pair<unsigned long long, unsigned long long>;

struct Fleet {
  bool seen = false;
  std::map<std::string, SeriesHealth> metrics;
  std::map<TenantKey, SeriesHealth> tenants;  // (host, tenant)
  std::vector<JsonObject> alerts;
  std::vector<JsonObject> statuses;
  std::optional<JsonObject> stats;

  bool Add(const std::string& type, const JsonObject& o, const Options& opt);
  void Print(const Options& opt) const;
};

bool Fleet::Add(const std::string& type, const JsonObject& o,
                const Options& opt) {
  if (type == "rollup") {
    const std::string metric = StrOr(o, "metric", "?");
    metrics[metric].Add(o);
    if (metric == opt.metric) {
      tenants[{Count(o, "host"), Count(o, "tenant")}].Add(o);
    }
  } else if (type == "rollup_stats") {
    stats = o;
  } else if (type == "slo_alert") {
    alerts.push_back(o);
  } else if (type == "slo_status") {
    statuses.push_back(o);
  } else {
    return false;
  }
  seen = true;
  return true;
}

void Fleet::Print(const Options& opt) const {
  if (stats) {
    const JsonObject& s = *stats;
    std::printf("\nrollup accounting: shards=%llu window_ticks=%llu "
                "ingested=%llu rows=%llu live_series=%llu\n",
                Count(s, "shards"), Count(s, "window_ticks"),
                Count(s, "ingested"), Count(s, "rows"),
                Count(s, "live_series"));
    std::printf("  drops: late=%llu series=%llu samples=%llu  "
                "memory=%.1f KiB\n",
                Count(s, "dropped_late"), Count(s, "dropped_series"),
                Count(s, "dropped_samples"),
                NumOr(s, "memory_bytes", 0.0) / 1024.0);
  } else {
    std::printf("\nrollup accounting: no rollup_stats record in stream\n");
  }

  if (!metrics.empty()) {
    std::printf("\nfleet health by metric:\n");
    TextTable table;
    table.SetHeader({"metric", "rows", "samples", "mean", "min", "max",
                     "worst p95", "worst p99", "windows"});
    for (const auto& [name, m] : metrics) {
      table.Row(name, TextTable::Str(m.rows), TextTable::Str(m.count),
                FormatFixed(m.mean(), 3), FormatFixed(m.min, 3),
                FormatFixed(m.max, 3), FormatFixed(m.worst_p95, 3),
                FormatFixed(m.worst_p99, 3),
                TextTable::Str(m.first_window) + ".." +
                    TextTable::Str(m.last_window));
    }
    table.Print(std::cout);
  } else {
    std::printf("\nfleet health: no rollup rows in stream\n");
  }

  if (!tenants.empty() && opt.top > 0) {
    std::vector<std::pair<TenantKey, SeriesHealth>> ranked(tenants.begin(),
                                                           tenants.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.second.worst_p95 != b.second.worst_p95)
        return a.second.worst_p95 > b.second.worst_p95;
      return a.first < b.first;  // deterministic tie-break
    });
    if (ranked.size() > opt.top) ranked.resize(opt.top);
    std::printf("\ntop %zu tenants by worst p95(%s):\n", ranked.size(),
                opt.metric.c_str());
    TextTable table;
    table.SetHeader(
        {"host", "tenant", "worst p95", "at window", "mean", "rows"});
    for (const auto& [key, t] : ranked) {
      table.Row(TextTable::Str(key.first), TextTable::Str(key.second),
                FormatFixed(t.worst_p95, 3), TextTable::Str(t.worst_window),
                FormatFixed(t.mean(), 3), TextTable::Str(t.rows));
    }
    table.Print(std::cout);
  } else if (opt.top > 0) {
    std::printf("\nno rollup rows for metric \"%s\" — nothing to rank (see "
                "fleet health table for metric names)\n",
                opt.metric.c_str());
  }

  if (!statuses.empty()) {
    std::printf("\nslo status (%zu alert transitions):\n", alerts.size());
    TextTable table;
    table.SetHeader({"rule", "expr", "level", "burn", "violating", "windows"});
    for (const JsonObject& st : statuses) {
      table.Row(StrOr(st, "rule", "?"), StrOr(st, "expr", "?"),
                StrOr(st, "level", "?"), FormatFixed(NumOr(st, "burn", 0.0), 3),
                TextTable::Str(Count(st, "violating")),
                TextTable::Str(Count(st, "windows")));
    }
    table.Print(std::cout);
  } else {
    std::printf("\nslo status: no slo_status records in stream\n");
  }

  if (opt.alerts > 0 && !alerts.empty()) {
    std::printf("\nfirst %zu alert transitions:\n",
                std::min(opt.alerts, alerts.size()));
    TextTable table;
    table.SetHeader(
        {"window", "rule", "level", "burn", "host", "tenant", "observed"});
    for (std::size_t i = 0; i < alerts.size() && i < opt.alerts; ++i) {
      const JsonObject& a = alerts[i];
      table.Row(TextTable::Str(Int(a, "window", 0)), StrOr(a, "rule", "?"),
                StrOr(a, "level", "?"), FormatFixed(NumOr(a, "burn", 0.0), 3),
                TextTable::Str(Count(a, "host")),
                TextTable::Str(Count(a, "tenant")),
                FormatFixed(NumOr(a, "observed", 0.0), 3));
    }
    table.Print(std::cout);
  }
}

// --- streaming service -----------------------------------------------------

void PrintSvc(const std::optional<JsonObject>& ref,
              const std::vector<JsonObject>& recoveries, const Options& opt) {
  // Streaming-service WAL / recovery / shed accounting. Any recovery row
  // that is not bit-identical means the crash-consistency pin broke.
  std::printf("\nstreaming service accounting\n");
  if (ref) {
    const JsonObject& r = *ref;
    std::printf("  reference: events=%llu admitted=%llu coalesced=%llu "
                "shed=%llu shed_rate=%.3f\n",
                Count(r, "events"), Count(r, "admitted"),
                Count(r, "coalesced"), Count(r, "shed"),
                NumOr(r, "shed_rate", 0.0));
    std::printf("  wal_appends=%llu checkpoints=%llu quarantines=%llu "
                "alarms=%llu decisions=%llu\n",
                Count(r, "wal_appends"), Count(r, "checkpoints"),
                Count(r, "quarantines"), Count(r, "alarms"),
                Count(r, "decisions"));
  } else {
    std::printf("  reference: no svc_ref record in stream\n");
  }
  if (recoveries.empty()) return;
  std::size_t identical = 0, fired = 0;
  unsigned long long max_replayed = 0, max_deduped = 0;
  for (const auto& r : recoveries) {
    if (NumOr(r, "bit_identical", 0) != 0.0) ++identical;
    if (NumOr(r, "fired", 0) != 0.0) ++fired;
    max_replayed = std::max(max_replayed, Count(r, "replayed"));
    max_deduped = std::max(max_deduped, Count(r, "deduped"));
  }
  std::printf("  recovery: crash_points=%zu fired=%zu bit_identical=%zu/%zu "
              "max_replayed=%llu max_deduped=%llu%s\n",
              recoveries.size(), fired, identical, recoveries.size(),
              max_replayed, max_deduped,
              identical == recoveries.size() ? "" : "  ** PIN BROKEN **");
  if (!opt.svc) return;
  std::printf("  %-24s %8s %6s %6s %10s %5s %9s %8s %14s %9s\n", "kind", "op",
              "bytes", "fired", "crash-tick", "ckpt", "replayed", "deduped",
              "wal-stop", "identical");
  for (const auto& r : recoveries) {
    std::printf("  %-24s %8llu %6.2f %6s %10lld %5s %9llu %8llu %14s %9s\n",
                StrOr(r, "kind", "?").c_str(), Count(r, "op_index"),
                NumOr(r, "byte_fraction", 0.0),
                NumOr(r, "fired", 0) != 0.0 ? "yes" : "NO",
                Int(r, "crash_tick", -1),
                NumOr(r, "from_checkpoint", 0) != 0.0 ? "yes" : "no",
                Count(r, "replayed"), Count(r, "deduped"),
                StrOr(r, "wal_stop", "?").c_str(),
                NumOr(r, "bit_identical", 0) != 0.0 ? "yes" : "NO");
  }
}

// --- forensics -------------------------------------------------------------

void PrintForensics(const std::vector<JsonObject>& reports,
                    const Options& opt) {
  // Incident forensics: whom the hardware attribution ledger convicts for
  // each alarm, and whether the KStest identification sweep concurred.
  // One line per report; --forensics adds the per-suspect evidence rows.
  // Across reports, the per-VM conviction table: a VM convicted repeatedly
  // is a serial offender; a low agreement rate flags divergence between the
  // hardware evidence and the perturbation-based baseline.
  struct Conviction {
    unsigned long long incidents = 0;
    unsigned long long ks_named = 0;   // KStest also produced a culprit
    unsigned long long ks_agreed = 0;  // ... and it was this VM
    double worst_score = 0.0;
  };
  std::map<long long, Conviction> convictions;
  std::size_t unattributed = 0;
  std::printf("\nforensic incident reports\n");
  for (const auto& r : reports) {
    const long long tick = Int(r, "alarm_tick", -1);
    const bool attributed = IsTrue(r, "attributed");
    const long long prime = Int(r, "prime_suspect", 0);
    const auto suspects = ParseObjectArray(StrOr(r, "suspects", "[]"));
    std::printf("  t=%8lld (%7.2fs)  ", tick, kClock.ToSeconds(tick));
    if (attributed) {
      std::printf("prime suspect VM %lld", prime);
    } else {
      std::printf("unattributed");
    }
    std::printf("  evidence t=%lld..%lld", Int(r, "window_start", -1),
                Int(r, "window_end", -1));
    const long long ks = Int(r, "kstest_culprit", 0);
    if (ks != 0) {
      std::printf("  kstest=VM %lld (%s)", ks,
                  IsTrue(r, "kstest_agrees") ? "agrees" : "DISAGREES");
    }
    std::printf("\n");
    if (opt.forensics) {
      for (const auto& s : suspects) {
        std::printf("    VM %-4lld score=%.3f evictions=%llu "
                    "bus_delay=%llu occupancy=%llu\n",
                    Int(s, "vm", 0), NumOr(s, "score", 0.0),
                    Count(s, "evictions"), Count(s, "bus_delay"),
                    Count(s, "occupancy"));
      }
    }

    if (!attributed) {
      ++unattributed;
      continue;
    }
    Conviction& c = convictions[prime];
    ++c.incidents;
    if (ks != 0) {
      ++c.ks_named;
      if (IsTrue(r, "kstest_agrees")) ++c.ks_agreed;
    }
    // The suspect list is score-sorted: the first is the prime suspect.
    if (!suspects.empty()) {
      c.worst_score = std::max(c.worst_score, NumOr(suspects[0], "score", 0));
    }
  }
  std::printf("  per-VM convictions (%zu reports, %zu unattributed)\n",
              reports.size(), unattributed);
  if (convictions.empty()) return;
  if (!opt.forensics) {
    std::printf("  (run with --forensics for the per-VM table)\n");
    return;
  }
  std::printf("    %-6s %9s %11s %12s %13s\n", "vm", "incidents",
              "worst-score", "kstest-named", "kstest-agreed");
  for (const auto& [vm, c] : convictions) {
    std::printf("    %-6lld %9llu %11.3f %12llu %13llu\n", vm, c.incidents,
                c.worst_score, c.ks_named, c.ks_agreed);
  }
}

// --- host chaos ------------------------------------------------------------

// One header-delimited host-chaos run (bench_hostchaos --trace_out writes a
// hostchaos_header line per run, warm then cold, followed by that run's
// host_state / evacuation / handoff records).
struct HostChaosRun {
  JsonObject header;
  std::vector<JsonObject> host_states;
  std::vector<JsonObject> evacuations;
  std::vector<JsonObject> handoffs;

  bool warm() const { return IsTrue(header, "warm_handoff"); }
};

bool AddHostChaos(const std::string& type, JsonObject& o,
                  std::vector<HostChaosRun>& runs) {
  if (type == "hostchaos_header") {
    runs.emplace_back();
    runs.back().header = std::move(o);
    return true;
  }
  if (type != "host_state" && type != "evacuation" && type != "handoff") {
    return false;
  }
  // A record before any header (truncated file) still gets summarized
  // under an implicit (cold) run.
  if (runs.empty()) runs.emplace_back();
  HostChaosRun& run = runs.back();
  if (type == "host_state") {
    run.host_states.push_back(std::move(o));
  } else if (type == "evacuation") {
    run.evacuations.push_back(std::move(o));
  } else {
    run.handoffs.push_back(std::move(o));
  }
  return true;
}

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

// The warm or the cold side of the across-runs handoff comparison.
struct HandoffSide {
  unsigned long long runs = 0;
  unsigned long long handoffs = 0;
  unsigned long long blind_sum = 0;  // over closed (non-censored) windows
  unsigned long long blind_closed = 0;
  unsigned long long blind_censored = 0;
  unsigned long long max_blind = 0;
};

void PrintHostChaos(const std::vector<HostChaosRun>& runs,
                    const Options& opt) {
  // Host-chaos runs (DESIGN.md §17): per run, the host up/down timeline,
  // evacuation convergence, the warm-vs-cold handoff ledger and a
  // blind-window histogram. The bench writes the warm and cold replay of
  // the same cell back to back, so the two runs are directly comparable;
  // the across-runs table below puts them side by side. A warm row whose
  // mean blind window is not well below the cold row's means the handoff
  // is not carrying detector state.
  std::printf("\nhost-chaos runs\n");
  HandoffSide sides[2];  // [0]=cold, [1]=warm
  unsigned long long transitions = 0, downs = 0, evacuations = 0;
  unsigned long long attempts = 0;
  std::map<std::string, unsigned long long> outcomes;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const HostChaosRun& hc = runs[i];
    HandoffSide& side = sides[hc.warm() ? 1 : 0];
    ++side.runs;
    std::printf("  run %zu: app=%s hosts=%lld handoff=%s attack_start=%lld "
                "horizon=%lld\n",
                i, StrOr(hc.header, "app", "?").c_str(),
                Int(hc.header, "hosts", 0), hc.warm() ? "warm" : "cold",
                Int(hc.header, "attack_start", -1),
                Int(hc.header, "horizon", -1));

    // Host timeline: transition count and per-host down entries.
    std::map<long long, unsigned long long> downs_by_host;
    for (const auto& t : hc.host_states) {
      const std::string to = StrOr(t, "to", "?");
      if (to == "down" || to == "dead") {
        ++downs_by_host[Int(t, "host", -1)];
        ++downs;
      }
    }
    transitions += hc.host_states.size();
    std::printf("    host timeline: %zu transitions", hc.host_states.size());
    for (const auto& [host, host_downs] : downs_by_host) {
      std::printf("  host%lld: %llu down", host, host_downs);
    }
    std::printf("\n");
    if (opt.hostchaos) {
      for (const auto& t : hc.host_states) {
        const long long tick = Int(t, "tick", -1);
        std::printf("      t=%8lld (%7.2fs)  host %lld  %s -> %s\n", tick,
                    kClock.ToSeconds(tick), Int(t, "host", -1),
                    StrOr(t, "from", "?").c_str(), StrOr(t, "to", "?").c_str());
      }
    }

    if (!hc.evacuations.empty()) {
      std::map<std::string, unsigned long long> run_outcomes;
      unsigned long long run_attempts = 0;
      double duration = 0;
      for (const auto& e : hc.evacuations) {
        ++run_outcomes[StrOr(e, "outcome", "?")];
        ++outcomes[StrOr(e, "outcome", "?")];
        run_attempts += Count(e, "attempts");
        duration +=
            std::max(0.0, NumOr(e, "finished", 0) - NumOr(e, "tick", 0));
      }
      attempts += run_attempts;
      evacuations += hc.evacuations.size();
      std::printf("    evacuations: %zu", hc.evacuations.size());
      for (const auto& [outcome, count] : run_outcomes) {
        std::printf("  %s=%llu", outcome.c_str(), count);
      }
      std::printf("  mean_attempts=%.1f mean_ticks=%.1f\n",
                  static_cast<double>(run_attempts) /
                      static_cast<double>(hc.evacuations.size()),
                  duration / static_cast<double>(hc.evacuations.size()));
      if (opt.hostchaos) {
        for (const auto& e : hc.evacuations) {
          const long long tick = Int(e, "tick", -1);
          std::printf("      t=%8lld (%7.2fs)  VM %lld  host %lld -> %lld  "
                      "attempts=%lld  %s\n",
                      tick, kClock.ToSeconds(tick), Int(e, "vm", -1),
                      Int(e, "from_host", -1), Int(e, "to_host", -1),
                      Int(e, "attempts", 0), StrOr(e, "outcome", "?").c_str());
        }
      }
    }

    if (!hc.handoffs.empty()) {
      unsigned long long warm = 0;
      unsigned long long blind_hist[kBlindBuckets] = {};
      for (const auto& h : hc.handoffs) {
        if (IsTrue(h, "warm")) ++warm;
        const long long blind = Int(h, "blind_ticks", -1);
        ++blind_hist[BlindBucket(blind)];
        ++side.handoffs;
        if (blind < 0) {
          ++side.blind_censored;
        } else {
          ++side.blind_closed;
          side.blind_sum += static_cast<unsigned long long>(blind);
          side.max_blind =
              std::max(side.max_blind, static_cast<unsigned long long>(blind));
        }
      }
      std::printf("    handoffs: %zu (warm=%llu cold=%llu)  blind-window:",
                  hc.handoffs.size(), warm, hc.handoffs.size() - warm);
      for (std::size_t b = 0; b < kBlindBuckets; ++b) {
        if (blind_hist[b] != 0) {
          std::printf(" [%s]=%llu", kBlindBucketNames[b], blind_hist[b]);
        }
      }
      std::printf("\n");
      if (opt.hostchaos) {
        for (const auto& h : hc.handoffs) {
          const long long tick = Int(h, "tick", -1);
          std::printf("      t=%8lld (%7.2fs)  VM %lld  host %lld -> %lld  "
                      "%s %s %s  blind=%lld\n",
                      tick, kClock.ToSeconds(tick), Int(h, "vm", -1),
                      Int(h, "from_host", -1), Int(h, "to_host", -1),
                      IsTrue(h, "forced") ? "forced" : "evac",
                      IsTrue(h, "warm") ? "warm" : "cold",
                      StrOr(h, "status", "?").c_str(),
                      Int(h, "blind_ticks", -1));
        }
      }
    }
  }

  std::printf("  all runs: runs=%zu (warm=%llu cold=%llu) "
              "host_transitions=%llu host_downs=%llu\n",
              runs.size(), sides[1].runs, sides[0].runs, transitions, downs);
  if (evacuations != 0) {
    std::printf("  all evacuations: %llu", evacuations);
    for (const auto& [outcome, count] : outcomes) {
      std::printf(" %s=%llu", outcome.c_str(), count);
    }
    std::printf(" mean_attempts=%.1f\n", static_cast<double>(attempts) /
                                             static_cast<double>(evacuations));
  }
  if (sides[0].handoffs == 0 && sides[1].handoffs == 0) return;
  if (!opt.hostchaos) {
    std::printf("  (run with --hostchaos for the warm-vs-cold handoff "
                "table)\n");
    return;
  }
  std::printf("    %-7s %5s %9s %11s %10s %9s\n", "handoff", "runs",
              "handoffs", "mean-blind", "max-blind", "censored");
  for (int w = 1; w >= 0; --w) {
    const HandoffSide& s = sides[w];
    const std::string mean =
        s.blind_closed == 0
            ? "-"
            : FormatFixed(static_cast<double>(s.blind_sum) /
                              static_cast<double>(s.blind_closed),
                          1);
    std::printf("    %-7s %5llu %9llu %11s %10llu %9llu\n",
                w == 1 ? "warm" : "cold", s.runs, s.handoffs, mean.c_str(),
                s.max_blind, s.blind_censored);
  }
}

// --- lint ------------------------------------------------------------------

void PrintLint(const JsonObject& s, const Options& opt) {
  // Static-analysis run summary (sdslint --stats --stats-out). parsed counts
  // the scan set plus every header pulled in through include resolution;
  // keys an older writer added beside these are ignored.
  std::printf("\nlint analysis (schema_version=%lld)\n",
              Int(s, "schema_version", 0));
  std::printf("  scanned=%llu files (parsed=%llu)  "
              "functions=%llu call_edges=%llu\n",
              Count(s, "files_scanned"), Count(s, "parsed"),
              Count(s, "functions"), Count(s, "call_edges"));
  std::printf("  taint: seeds=%llu tainted_functions=%llu\n",
              Count(s, "taint_seeds"), Count(s, "tainted_functions"));
  std::printf("  findings: diagnostics=%llu suppressions=%llu\n",
              Count(s, "diagnostics"), Count(s, "suppressions"));
  if (!opt.lint) return;
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

std::size_t NonNegative(const sds::Flags& flags, const std::string& name,
                        long long fallback) {
  return static_cast<std::size_t>(
      std::max<long long>(flags.GetInt(name, fallback), 0));
}

}  // namespace

int main(int argc, char** argv) {
  sds::Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"layer", "restrict telemetry event tables to this layer"},
           {"audit", "dump every telemetry audit record", true},
           {"events", "also dump the first N matching telemetry events"},
           {"svc", "dump per-crash-point service recovery rows", true},
           {"forensics",
            "dump per-suspect evidence under each forensic report and the "
            "per-VM conviction table",
            true},
           {"lint", "dump per-rule hit counts under the lint summary", true},
           {"hostchaos",
            "dump host up/down timelines and evacuation rows under each "
            "host-chaos run, and the warm-vs-cold handoff table",
            true},
           {"metric",
            "rollup metric used to rank tenants (default "
            "detect.latency_ticks)"},
           {"top", "noisiest tenants to show (default 10)"},
           {"alerts", "dump the first N slo_alert records (default 0)"}})) {
    return flags.help_requested() ? 0 : 1;
  }
  if (flags.positional().size() != 1) {
    std::fprintf(stderr, "usage: inspect <stream.jsonl> [flags] "
                         "(--help lists them)\n");
    return 1;
  }
  const std::string path = flags.positional()[0];
  Options opt;
  opt.layer = flags.GetString("layer", "");
  opt.audit = flags.GetBool("audit", false);
  opt.events = NonNegative(flags, "events", 0);
  opt.svc = flags.GetBool("svc", false);
  opt.forensics = flags.GetBool("forensics", false);
  opt.lint = flags.GetBool("lint", false);
  opt.hostchaos = flags.GetBool("hostchaos", false);
  opt.metric = flags.GetString("metric", "detect.latency_ticks");
  opt.top = NonNegative(flags, "top", 10);
  opt.alerts = NonNegative(flags, "alerts", 0);

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "inspect: cannot open %s\n", path.c_str());
    return 1;
  }

  // Input-hygiene accounting: each malformation class counted separately so
  // "my tool said nothing" and "my file is damaged" are distinguishable.
  unsigned long long total_lines = 0, empty_lines = 0, bad_lines = 0;
  std::map<std::string, unsigned long long> unknown_types;
  Telemetry telemetry;
  Fleet fleet;
  std::optional<JsonObject> svc_ref;
  std::vector<JsonObject> svc_recoveries;
  std::vector<JsonObject> forensic_reports;
  std::vector<HostChaosRun> hostchaos_runs;
  std::optional<JsonObject> lint_stats;

  std::string line;
  while (std::getline(in, line)) {
    ++total_lines;
    // Whitespace-only lines (including the \r a Windows editor leaves on an
    // otherwise blank line) count as empty, not unparseable.
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      ++empty_lines;
      continue;
    }
    JsonObject o;
    if (!ParseJsonLine(line, o) || !IntegersInRange(o)) {
      ++bad_lines;
      continue;
    }
    const std::string type = StrOr(o, "type", "");
    if (telemetry.Add(type, o, line, opt) || fleet.Add(type, o, opt) ||
        AddHostChaos(type, o, hostchaos_runs)) {
      continue;
    }
    if (type == "svc_ref") {
      svc_ref = std::move(o);
    } else if (type == "svc_recovery") {
      svc_recoveries.push_back(std::move(o));
    } else if (type == "forensic_report") {
      forensic_reports.push_back(std::move(o));
    } else if (type.empty() && o.count("rule_hits") != 0 &&
               o.count("files_scanned") != 0) {
      lint_stats = std::move(o);
    } else {
      // A future writer's record (or corruption that still parses): count it
      // by name, keep going.
      ++unknown_types[type.empty() ? "(missing)" : type];
    }
  }

  std::printf("stream: %s\n", path.c_str());
  std::printf("  lines=%llu empty=%llu unparseable=%llu\n", total_lines,
              empty_lines, bad_lines);
  if (!unknown_types.empty()) {
    std::printf("  unknown record types:");
    for (const auto& [name, count] : unknown_types) {
      std::printf(" %s=%llu", name.c_str(), count);
    }
    std::printf("\n");
  }
  if (telemetry.seen) telemetry.Print(opt);
  if (fleet.seen) fleet.Print(opt);
  if (svc_ref || !svc_recoveries.empty()) {
    PrintSvc(svc_ref, svc_recoveries, opt);
  }
  if (!forensic_reports.empty()) PrintForensics(forensic_reports, opt);
  if (!hostchaos_runs.empty()) PrintHostChaos(hostchaos_runs, opt);
  if (lint_stats) PrintLint(*lint_stats, opt);
  return 0;
}
