// Chaos-restart harness for the streaming detection service.
//
// Kills the service at deterministic fault-plan points — mid-WAL-append at
// several torn byte fractions, mid-checkpoint, and immediately after a
// clean final append — restarts it from the surviving store bytes, re-drives
// the same at-least-once feed, and verifies the recovered decision log,
// alarm sequence and accounting are bit-identical to an uninterrupted
// reference run. Emits the `BENCH_svc {json}` line with the recovery-cost
// curve (WAL records replayed + redelivered events deduplicated per crash
// point) and the shed rate under ghost-tenant burst pressure.
//
// No counterpart figure in the paper: this extends the evaluation to the
// operational premise of ROADMAP item 5 — a detector that monitors tenants
// continuously must survive its own host dying mid-write.
#include <fstream>
#include <iostream>
#include <string>

#include "common/bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/reporter.h"
#include "eval/service_chaos.h"

int main(int argc, char** argv) {
  using namespace sds;

  Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"tenants", "clean tenants in the feed (default 6)"},
           {"ticks", "feed length in ticks (default 1200)"},
           {"seed", "feed seed (default 42)"},
           {"threads", "crash points evaluated in parallel (default 4)"},
           {"accounting_out", "write svc_ref/svc_recovery JSONL here"},
           {"json_out", "also write the BENCH_svc JSON to this file"}})) {
    return flags.help_requested() ? 0 : 1;
  }

  eval::ServiceChaosConfig config;
  config.tenants = static_cast<std::uint32_t>(flags.GetInt("tenants", 6));
  config.ticks = static_cast<Tick>(flags.GetInt("ticks", 1200));
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  config.threads = static_cast<int>(flags.GetInt("threads", 4));
  config.attack_start = config.ticks / 2;

  bench::PrintBenchHeader(
      std::cout, "bench_svc_chaos_sweep",
      "Robustness extension (no paper counterpart): crash-consistent "
      "service recovery — WAL replay + redelivery dedupe vs crash point");
  std::cout << "tenants=" << config.tenants << " ticks=" << config.ticks
            << " seed=" << config.seed << " threads=" << config.threads
            << "\n\n";

  std::ofstream accounting;
  std::ostream* accounting_out = nullptr;
  const std::string accounting_path = flags.GetString("accounting_out", "");
  if (!accounting_path.empty()) {
    accounting.open(accounting_path);
    if (!accounting) {
      std::cerr << "cannot write " << accounting_path << "\n";
      return 1;
    }
    accounting_out = &accounting;
  }

  const eval::ServiceChaosResult result =
      eval::RunServiceChaosSweep(config, accounting_out);

  std::cout << "reference: events=" << result.feed_events
            << " wal_appends=" << result.ref_wal_appends
            << " checkpoints=" << result.ref_checkpoints
            << " alarms=" << result.ref_alarms
            << " decisions=" << result.ref_decisions
            << " shed_rate=" << FormatFixed(result.ref_shed_rate, 3) << "\n\n";

  TextTable table;
  table.SetHeader({"crash kind", "op", "bytes", "fired", "crash tick",
                   "ckpt", "replayed", "deduped", "identical"});
  for (const auto& p : result.points) {
    table.Row(fault::ServiceFaultKindName(p.kind),
              TextTable::Str(p.op_index), FormatFixed(p.byte_fraction, 2),
              p.fired ? "yes" : "NO", TextTable::Str(p.crash_tick),
              p.recovered_from_checkpoint ? "yes" : "no",
              TextTable::Str(p.replayed_records),
              TextTable::Str(p.redelivered_deduped),
              p.bit_identical ? "yes" : "NO");
  }
  table.Print(std::cout);

  std::cout << "\nShape check: every crash point fires and recovers "
               "bit-identical; later crash\npoints replay more WAL records "
               "and dedupe more redelivered events; torn frames\nshow "
               "wal_stop=torn_frame while fraction-0 tears end cleanly.\n\n";

  if (!bench::EmitBenchJson(std::cout, "svc", flags.GetString("json_out", ""),
                            [&](std::ostream& os) {
                              eval::WriteServiceChaosJson(config, result, os);
                            })) {
    return 1;
  }
  return result.all_bit_identical ? 0 : 1;
}
