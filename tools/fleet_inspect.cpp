// fleet_inspect: summarizes the fleet observability JSONL stream written by
// bench_fleetobs --rollup_out (obs::FleetRollup::WriteJsonl +
// obs::SloEngine::WriteJsonl output).
//
//   fleet_inspect fleet.jsonl                 fleet health + SLO + top talkers
//   fleet_inspect fleet.jsonl --metric=NAME   rank tenants by this metric
//                                             (default detect.latency_ticks)
//   fleet_inspect fleet.jsonl --top=K         show K noisiest tenants (def 10)
//   fleet_inspect fleet.jsonl --alerts=N      dump the first N alert records
//   fleet_inspect fleet.jsonl --svc           per-crash-point recovery rows
//   fleet_inspect fleet.jsonl --forensics     per-VM conviction table over
//                                             the stream's forensic reports
//   fleet_inspect chaos.jsonl --hostchaos     warm-vs-cold handoff table over
//                                             the stream's host-chaos runs
//                                             (bench_hostchaos --trace_out)
//
// Line types consumed: "rollup" (one window x series row), "rollup_stats"
// (ingest/drop/memory accounting), "slo_alert" (level transitions),
// "slo_status" (final per-rule state), the streaming-service
// accounting pair "svc_ref" / "svc_recovery" written by
// bench_svc_chaos_sweep --accounting_out, and "forensic_report"
// (detect::WriteForensicReportJson incident records). Like trace_inspect, it
// reads lines with common/json.h, and malformed input never crashes the
// tool: empty lines, truncated records and unknown "type" values are counted
// and reported, and everything parseable is still summarized.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/flags.h"
#include "common/json.h"

namespace {

using sds::FormatFixed;
using sds::JsonObject;
using sds::NumOr;
using sds::ParseJsonLine;
using sds::StrOr;
using sds::TextTable;

// Per-metric fleet aggregate across all rollup rows.
struct MetricHealth {
  std::uint64_t rows = 0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double worst_p95 = 0.0;
  double worst_p99 = 0.0;
  std::int64_t first_window = 0;
  std::int64_t last_window = 0;

  void Add(const JsonObject& row) {
    const double row_min = NumOr(row, "min", 0.0);
    const double row_max = NumOr(row, "max", 0.0);
    const std::int64_t window =
        static_cast<std::int64_t>(NumOr(row, "window", 0.0));
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
    count += static_cast<std::uint64_t>(NumOr(row, "count", 0.0));
    sum += NumOr(row, "sum", 0.0);
    worst_p95 = std::max(worst_p95, NumOr(row, "p95", 0.0));
    worst_p99 = std::max(worst_p99, NumOr(row, "p99", 0.0));
  }

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

// Per-(host, tenant) ranking state for the --metric series.
struct TenantHealth {
  std::uint64_t rows = 0;
  double worst_p95 = 0.0;
  double sum = 0.0;
  std::uint64_t count = 0;
  std::int64_t worst_window = 0;

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

}  // namespace

int main(int argc, char** argv) {
  sds::Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"metric",
            "metric used to rank tenants (default detect.latency_ticks)"},
           {"top", "noisiest tenants to show (default 10)"},
           {"alerts", "dump the first N slo_alert records (default 0)"},
           {"svc", "dump per-crash-point service recovery rows", true},
           {"forensics", "per-VM conviction table over forensic reports",
            true},
           {"hostchaos",
            "warm-vs-cold handoff table over host-chaos runs", true}})) {
    return flags.help_requested() ? 0 : 1;
  }
  if (flags.positional().size() != 1) {
    std::cerr << "usage: fleet_inspect <fleet.jsonl> [--metric=NAME] "
                 "[--top=K] [--alerts=N]\n";
    return 1;
  }

  const std::string rank_metric =
      flags.GetString("metric", "detect.latency_ticks");
  const std::size_t top_k =
      static_cast<std::size_t>(std::max<std::int64_t>(flags.GetInt("top", 10), 0));
  const std::size_t dump_alerts =
      static_cast<std::size_t>(std::max<std::int64_t>(flags.GetInt("alerts", 0), 0));

  std::ifstream in(flags.positional()[0]);
  if (!in) {
    std::cerr << "cannot open " << flags.positional()[0] << "\n";
    return 1;
  }

  std::uint64_t total_lines = 0;
  std::uint64_t empty_lines = 0;
  std::uint64_t malformed_lines = 0;
  std::map<std::string, std::uint64_t> unknown_types;

  std::map<std::string, MetricHealth> metrics;
  std::map<std::pair<std::uint32_t, std::uint32_t>, TenantHealth> tenants;
  std::vector<JsonObject> alerts;
  std::vector<JsonObject> statuses;
  JsonObject stats;
  bool have_stats = false;
  // Streaming-service accounting (bench_svc_chaos_sweep --accounting_out).
  JsonObject svc_ref;
  bool have_svc_ref = false;
  std::vector<JsonObject> svc_recoveries;
  // Forensic incident reports, aggregated per convicted VM.
  std::vector<JsonObject> forensic_reports;
  // Host-chaos runs (bench_hostchaos --trace_out): records are aggregated
  // into a warm side and a cold side keyed by the enclosing run header's
  // warm_handoff flag, so the fleet view directly compares the two replays.
  struct HostChaosSide {
    std::uint64_t runs = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t blind_sum = 0;  // over closed (non-censored) windows
    std::uint64_t blind_closed = 0;
    std::uint64_t blind_censored = 0;
    std::uint64_t max_blind = 0;
  };
  HostChaosSide hc_sides[2];  // [0]=cold, [1]=warm
  bool hc_current_warm = false;
  bool hc_seen = false;
  std::uint64_t hc_transitions = 0;
  std::uint64_t hc_host_downs = 0;
  std::map<std::string, std::uint64_t> hc_evac_outcomes;
  std::uint64_t hc_evac_attempts = 0;
  std::uint64_t hc_evacuations = 0;

  std::string line;
  JsonObject obj;
  while (std::getline(in, line)) {
    ++total_lines;
    // Whitespace-only lines (including the \r a Windows editor leaves on an
    // otherwise blank line) count as empty, not malformed.
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      ++empty_lines;
      continue;
    }
    if (!ParseJsonLine(line, obj)) {
      ++malformed_lines;
      continue;
    }
    const std::string type = StrOr(obj, "type", "?");
    if (type == "rollup") {
      const std::string metric = StrOr(obj, "metric", "?");
      metrics[metric].Add(obj);
      if (metric == rank_metric) {
        const auto host = static_cast<std::uint32_t>(NumOr(obj, "host", 0.0));
        const auto tenant =
            static_cast<std::uint32_t>(NumOr(obj, "tenant", 0.0));
        TenantHealth& t = tenants[{host, tenant}];
        ++t.rows;
        const double p95 = NumOr(obj, "p95", 0.0);
        if (p95 > t.worst_p95) {
          t.worst_p95 = p95;
          t.worst_window = static_cast<std::int64_t>(NumOr(obj, "window", 0.0));
        }
        t.sum += NumOr(obj, "sum", 0.0);
        t.count += static_cast<std::uint64_t>(NumOr(obj, "count", 0.0));
      }
    } else if (type == "rollup_stats") {
      stats = obj;
      have_stats = true;
    } else if (type == "slo_alert") {
      alerts.push_back(obj);
    } else if (type == "slo_status") {
      statuses.push_back(obj);
    } else if (type == "svc_ref") {
      svc_ref = obj;
      have_svc_ref = true;
    } else if (type == "svc_recovery") {
      svc_recoveries.push_back(obj);
    } else if (type == "forensic_report") {
      forensic_reports.push_back(obj);
    } else if (type == "hostchaos_header") {
      hc_seen = true;
      hc_current_warm = StrOr(obj, "warm_handoff", "false") == "true";
      ++hc_sides[hc_current_warm ? 1 : 0].runs;
    } else if (type == "host_state") {
      hc_seen = true;
      ++hc_transitions;
      const std::string to = StrOr(obj, "to", "?");
      if (to == "down" || to == "dead") ++hc_host_downs;
    } else if (type == "evacuation") {
      hc_seen = true;
      ++hc_evacuations;
      ++hc_evac_outcomes[StrOr(obj, "outcome", "?")];
      hc_evac_attempts +=
          static_cast<std::uint64_t>(NumOr(obj, "attempts", 0.0));
    } else if (type == "handoff") {
      hc_seen = true;
      HostChaosSide& side = hc_sides[hc_current_warm ? 1 : 0];
      ++side.handoffs;
      const auto blind =
          static_cast<std::int64_t>(NumOr(obj, "blind_ticks", -1.0));
      if (blind < 0) {
        ++side.blind_censored;
      } else {
        ++side.blind_closed;
        side.blind_sum += static_cast<std::uint64_t>(blind);
        side.max_blind =
            std::max(side.max_blind, static_cast<std::uint64_t>(blind));
      }
    } else {
      ++unknown_types[type];
    }
  }

  std::cout << "fleet_inspect: " << flags.positional()[0] << "\n";
  std::cout << "  lines=" << total_lines << " empty=" << empty_lines
            << " malformed=" << malformed_lines;
  if (!unknown_types.empty()) {
    std::cout << " unknown_types={";
    bool first = true;
    for (const auto& [type, n] : unknown_types) {
      if (!first) std::cout << ", ";
      first = false;
      std::cout << type << ":" << n;
    }
    std::cout << "}";
  }
  std::cout << "\n\n";

  if (have_stats) {
    std::cout << "rollup accounting: shards="
              << static_cast<std::uint64_t>(NumOr(stats, "shards", 0.0))
              << " window_ticks="
              << static_cast<std::uint64_t>(NumOr(stats, "window_ticks", 0.0))
              << " ingested="
              << static_cast<std::uint64_t>(NumOr(stats, "ingested", 0.0))
              << " rows="
              << static_cast<std::uint64_t>(NumOr(stats, "rows", 0.0))
              << " live_series="
              << static_cast<std::uint64_t>(NumOr(stats, "live_series", 0.0))
              << "\n  drops: late="
              << static_cast<std::uint64_t>(NumOr(stats, "dropped_late", 0.0))
              << " series="
              << static_cast<std::uint64_t>(NumOr(stats, "dropped_series", 0.0))
              << " samples="
              << static_cast<std::uint64_t>(
                     NumOr(stats, "dropped_samples", 0.0))
              << "  memory=" << FormatFixed(
                     NumOr(stats, "memory_bytes", 0.0) / 1024.0, 1)
              << " KiB\n\n";
  } else {
    std::cout << "rollup accounting: no rollup_stats record in stream\n\n";
  }

  if (!metrics.empty()) {
    std::cout << "fleet health by metric:\n";
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
    std::cout << "\n";
  } else {
    std::cout << "fleet health: no rollup rows in stream\n\n";
  }

  if (!tenants.empty() && top_k > 0) {
    std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>,
                          TenantHealth>>
        ranked(tenants.begin(), tenants.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.second.worst_p95 != b.second.worst_p95)
        return a.second.worst_p95 > b.second.worst_p95;
      return a.first < b.first;  // deterministic tie-break
    });
    if (ranked.size() > top_k) ranked.resize(top_k);
    std::cout << "top " << ranked.size() << " tenants by worst p95("
              << rank_metric << "):\n";
    TextTable table;
    table.SetHeader(
        {"host", "tenant", "worst p95", "at window", "mean", "rows"});
    for (const auto& [key, t] : ranked) {
      table.Row(TextTable::Str(key.first), TextTable::Str(key.second),
                FormatFixed(t.worst_p95, 3), TextTable::Str(t.worst_window),
                FormatFixed(t.mean(), 3), TextTable::Str(t.rows));
    }
    table.Print(std::cout);
    std::cout << "\n";
  } else if (top_k > 0) {
    std::cout << "no rollup rows for metric \"" << rank_metric
              << "\" — nothing to rank (see fleet health table for metric "
                 "names)\n\n";
  }

  if (!statuses.empty()) {
    std::cout << "slo status (" << alerts.size() << " alert transitions):\n";
    TextTable table;
    table.SetHeader({"rule", "expr", "level", "burn", "violating", "windows"});
    for (const JsonObject& st : statuses) {
      table.Row(StrOr(st, "rule", "?"), StrOr(st, "expr", "?"),
                StrOr(st, "level", "?"), FormatFixed(NumOr(st, "burn", 0.0), 3),
                TextTable::Str(
                    static_cast<std::uint64_t>(NumOr(st, "violating", 0.0))),
                TextTable::Str(
                    static_cast<std::uint64_t>(NumOr(st, "windows", 0.0))));
    }
    table.Print(std::cout);
    std::cout << "\n";
  } else {
    std::cout << "slo status: no slo_status records in stream\n\n";
  }

  if (dump_alerts > 0 && !alerts.empty()) {
    std::cout << "first " << std::min(dump_alerts, alerts.size())
              << " alert transitions:\n";
    TextTable table;
    table.SetHeader(
        {"window", "rule", "level", "burn", "host", "tenant", "observed"});
    for (std::size_t i = 0; i < alerts.size() && i < dump_alerts; ++i) {
      const JsonObject& a = alerts[i];
      table.Row(TextTable::Str(
                    static_cast<std::int64_t>(NumOr(a, "window", 0.0))),
                StrOr(a, "rule", "?"), StrOr(a, "level", "?"),
                FormatFixed(NumOr(a, "burn", 0.0), 3),
                TextTable::Str(
                    static_cast<std::uint32_t>(NumOr(a, "host", 0.0))),
                TextTable::Str(
                    static_cast<std::uint32_t>(NumOr(a, "tenant", 0.0))),
                FormatFixed(NumOr(a, "observed", 0.0), 3));
    }
    table.Print(std::cout);
  }

  if (!forensic_reports.empty()) {
    // Fleet-level forensics: how often each VM was convicted across the
    // stream's incident reports, and how often the KStest identification
    // sweep concurred. A VM convicted repeatedly across incidents is a
    // serial offender; a low agreement rate flags divergence between the
    // hardware evidence and the perturbation-based baseline.
    struct Conviction {
      std::uint64_t incidents = 0;
      std::uint64_t ks_named = 0;   // KStest also produced a culprit
      std::uint64_t ks_agreed = 0;  // ... and it was this VM
      double worst_score = 0.0;
    };
    std::map<std::uint64_t, Conviction> convictions;
    std::uint64_t unattributed = 0;
    for (const JsonObject& r : forensic_reports) {
      if (StrOr(r, "attributed", "false") != "true") {
        ++unattributed;
        continue;
      }
      const auto vm = static_cast<std::uint64_t>(NumOr(r, "prime_suspect", 0));
      Conviction& c = convictions[vm];
      ++c.incidents;
      if (NumOr(r, "kstest_culprit", 0.0) != 0.0) {
        ++c.ks_named;
        if (StrOr(r, "kstest_agrees", "false") == "true") ++c.ks_agreed;
      }
      // The report's suspect list is score-sorted; the prime suspect's
      // score is the first "score" in the verbatim array. Cheaper to carry
      // it as a top-level field would be a format change; instead reuse the
      // array text up to the first object boundary.
      const std::string raw = StrOr(r, "suspects", "[]");
      const auto pos = raw.find("\"score\":");
      if (pos != std::string::npos) {
        try {
          c.worst_score = std::max(c.worst_score, std::stod(raw.substr(pos + 8)));
        } catch (...) {
          // damaged row: keep the running max
        }
      }
    }
    std::cout << "\nforensic convictions (" << forensic_reports.size()
              << " reports, " << unattributed << " unattributed):\n";
    if (flags.GetBool("forensics", false) && !convictions.empty()) {
      TextTable table;
      table.SetHeader({"vm", "incidents", "worst score", "kstest named",
                       "kstest agreed"});
      for (const auto& [vm, c] : convictions) {
        table.Row(TextTable::Str(vm), TextTable::Str(c.incidents),
                  FormatFixed(c.worst_score, 3), TextTable::Str(c.ks_named),
                  TextTable::Str(c.ks_agreed));
      }
      table.Print(std::cout);
    } else if (!convictions.empty()) {
      std::cout << "  (run with --forensics for the per-VM table)\n";
    }
  }

  if (hc_seen) {
    // Host-chaos fleet view: how much the hosts misbehaved, whether
    // evacuation converged, and the warm-vs-cold handoff comparison (the
    // bench writes both replays of each cell into one stream). A warm row
    // whose mean blind window is not well below the cold row's means the
    // handoff is not carrying detector state.
    std::cout << "\nhost-chaos: runs=" << (hc_sides[0].runs + hc_sides[1].runs)
              << " (warm=" << hc_sides[1].runs << " cold=" << hc_sides[0].runs
              << ") host_transitions=" << hc_transitions
              << " host_downs=" << hc_host_downs << "\n";
    if (hc_evacuations != 0) {
      std::cout << "  evacuations: " << hc_evacuations;
      for (const auto& [outcome, n] : hc_evac_outcomes) {
        std::cout << " " << outcome << "=" << n;
      }
      std::cout << " mean_attempts="
                << FormatFixed(static_cast<double>(hc_evac_attempts) /
                                   static_cast<double>(hc_evacuations),
                               1)
                << "\n";
    }
    if (flags.GetBool("hostchaos", false) &&
        (hc_sides[0].handoffs != 0 || hc_sides[1].handoffs != 0)) {
      TextTable table;
      table.SetHeader({"handoff", "runs", "handoffs", "mean blind", "max blind",
                       "censored"});
      for (int side = 1; side >= 0; --side) {
        const HostChaosSide& s = hc_sides[side];
        table.Row(side == 1 ? "warm" : "cold", TextTable::Str(s.runs),
                  TextTable::Str(s.handoffs),
                  s.blind_closed == 0
                      ? "-"
                      : FormatFixed(static_cast<double>(s.blind_sum) /
                                        static_cast<double>(s.blind_closed),
                                    1),
                  TextTable::Str(s.max_blind),
                  TextTable::Str(s.blind_censored));
      }
      table.Print(std::cout);
    } else if (hc_sides[0].handoffs != 0 || hc_sides[1].handoffs != 0) {
      std::cout << "  (run with --hostchaos for the warm-vs-cold handoff "
                   "table)\n";
    }
  }

  if (have_svc_ref || !svc_recoveries.empty()) {
    // Streaming-service WAL / recovery / shed accounting, from the chaos
    // sweep's --accounting_out stream. A recovery row with identical=0 means
    // the crash-consistency pin broke for that crash point.
    std::cout << "\nstreaming service";
    if (have_svc_ref) {
      std::cout << " (reference run): events="
                << static_cast<std::uint64_t>(NumOr(svc_ref, "events", 0.0))
                << " admitted="
                << static_cast<std::uint64_t>(NumOr(svc_ref, "admitted", 0.0))
                << " coalesced="
                << static_cast<std::uint64_t>(NumOr(svc_ref, "coalesced", 0.0))
                << " shed="
                << static_cast<std::uint64_t>(NumOr(svc_ref, "shed", 0.0))
                << " shed_rate="
                << FormatFixed(NumOr(svc_ref, "shed_rate", 0.0), 3)
                << "\n  wal_appends="
                << static_cast<std::uint64_t>(
                       NumOr(svc_ref, "wal_appends", 0.0))
                << " checkpoints="
                << static_cast<std::uint64_t>(
                       NumOr(svc_ref, "checkpoints", 0.0))
                << " quarantines="
                << static_cast<std::uint64_t>(
                       NumOr(svc_ref, "quarantines", 0.0))
                << " alarms="
                << static_cast<std::uint64_t>(NumOr(svc_ref, "alarms", 0.0))
                << "\n";
    } else {
      std::cout << ": no svc_ref record in stream\n";
    }
    if (!svc_recoveries.empty()) {
      std::uint64_t identical = 0, fired = 0;
      std::uint64_t max_replayed = 0, max_deduped = 0;
      for (const JsonObject& r : svc_recoveries) {
        if (NumOr(r, "bit_identical", 0.0) != 0.0) ++identical;
        if (NumOr(r, "fired", 0.0) != 0.0) ++fired;
        max_replayed = std::max(
            max_replayed,
            static_cast<std::uint64_t>(NumOr(r, "replayed", 0.0)));
        max_deduped = std::max(
            max_deduped,
            static_cast<std::uint64_t>(NumOr(r, "deduped", 0.0)));
      }
      std::cout << "  recovery: crash_points=" << svc_recoveries.size()
                << " fired=" << fired << " bit_identical=" << identical << "/"
                << svc_recoveries.size() << " max_replayed=" << max_replayed
                << " max_deduped=" << max_deduped
                << (identical == svc_recoveries.size()
                        ? ""
                        : "  ** PIN BROKEN **")
                << "\n";
      if (flags.GetBool("svc", false)) {
        TextTable table;
        table.SetHeader({"kind", "op", "bytes", "fired", "crash tick", "ckpt",
                         "replayed", "deduped", "wal stop", "identical"});
        for (const JsonObject& r : svc_recoveries) {
          table.Row(StrOr(r, "kind", "?"),
                    TextTable::Str(
                        static_cast<std::uint64_t>(NumOr(r, "op_index", 0.0))),
                    FormatFixed(NumOr(r, "byte_fraction", 0.0), 2),
                    NumOr(r, "fired", 0.0) != 0.0 ? "yes" : "NO",
                    TextTable::Str(static_cast<std::int64_t>(
                        NumOr(r, "crash_tick", -1.0))),
                    NumOr(r, "from_checkpoint", 0.0) != 0.0 ? "yes" : "no",
                    TextTable::Str(
                        static_cast<std::uint64_t>(NumOr(r, "replayed", 0.0))),
                    TextTable::Str(
                        static_cast<std::uint64_t>(NumOr(r, "deduped", 0.0))),
                    StrOr(r, "wal_stop", "?"),
                    NumOr(r, "bit_identical", 0.0) != 0.0 ? "yes" : "NO");
        }
        table.Print(std::cout);
      }
    }
  }
  return 0;
}
