// svcd: the crash-consistent streaming detection service, file-backed.
//
// The library half (src/svc) is exercised in-memory by tests and the chaos
// harness; this binary is the operational half: a svc::FileStore rooted at
// --state_dir persists the WAL and the two-slot checkpoint across process
// restarts, so killing svcd mid-ingest and re-running it over the same feed
// reproduces the exact alarm sequence an uninterrupted run would have
// produced (the recovery invariant, DESIGN.md §14).
//
//   svcd --state_dir=DIR --feed=FILE    recover from DIR (if state exists),
//                                       ingest the feed JSONL, quiesce,
//                                       checkpoint, print the report
//   svcd --state_dir=DIR --status       recover + report only, no ingest
//   svcd --gen_feed=FILE                write a deterministic demo feed
//        [--ticks=N --tenants=K --seed=S]
//
// Feed lines are svc_sample JSONL (svc/sample.h); the transport offset is
// the 1-based line number, so re-feeding the same file after a crash is
// exactly the at-least-once redelivery the service dedupes. Lines that do
// not parse are offered down the malformed rung, never fatal. Whenever the
// state dir held a checkpoint, the run prints the rung it opened at:
// `svcd: checkpoint=ok`, or e.g. `svcd: checkpoint=bad_checksum (refused)`.
// A refused checkpoint's bytes are copied to <state_dir>/ckpt.snap.refused
// before any write, so the next checkpoint cannot destroy the evidence.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "common/flags.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "common/types.h"
#include "svc/sample.h"
#include "svc/service.h"
#include "svc/store.h"

namespace {

using namespace sds;

// Small-window detector config so the demo feed alarms within a few hundred
// ticks; the library defaults (window 200, profile 600) are sized for
// paper-scale traces. With h_c cut to 4 the paper's k=1.125 band is far too
// tight (Chebyshev false-alarm bound (1/k^2)^4 ~ 0.39 per check), so widen
// the band instead: the demo attack shifts the MA by ~100 profile sigmas,
// so a wide k costs no detection delay while keeping clean tenants quiet.
svc::SvcConfig DemoConfig() {
  svc::SvcConfig config;
  config.pipeline.det.window = 40;
  config.pipeline.det.step = 10;
  config.pipeline.det.h_c = 4;
  config.pipeline.det.boundary_k = 25.0;
  config.pipeline.profile_len = 120;
  return config;
}

int GenerateFeed(const std::string& path, std::uint32_t tenants, Tick ticks,
                 std::uint64_t seed) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "svcd: cannot write " << path << "\n";
    return 1;
  }
  const Tick attack_start = ticks / 2;
  std::uint64_t lines = 0;
  for (Tick t = 0; t < ticks; ++t) {
    for (std::uint32_t tenant = 0; tenant < tenants; ++tenant) {
      svc::SvcSample s;
      s.tenant = tenant;
      s.tick = t;
      // Tenant 0 is the victim: its access stream shifts hard mid-feed, the
      // signature the SDS boundary analyzer is built to catch. Same counter
      // model as the eval chaos feed.
      const bool attacked = tenant == 0 && t >= attack_start;
      double a = 2200.0 + 600.0 * Draw01(seed, tenant, t, 1);
      if (attacked) a += 2600.0 + 400.0 * Draw01(seed, tenant, t, 2);
      const double ratio = 0.25 + 0.10 * Draw01(seed, tenant, t, 3);
      s.access_num = static_cast<std::uint64_t>(a);
      s.miss_num = static_cast<std::uint64_t>(a * ratio);
      svc::WriteSampleLine(out, s);
      ++lines;
    }
  }
  std::cout << "wrote " << lines << " svc_sample lines to " << path
            << " (tenants=" << tenants << " ticks=" << ticks
            << " seed=" << seed << ", tenant 0 attacked from tick "
            << attack_start << ")\n";
  return 0;
}

void PrintReport(const svc::DetectionService& service, bool recovered) {
  const svc::SvcAccounting& a = service.accounting();
  const svc::SvcIncarnation& inc = service.incarnation();
  std::cout << "\nstate: " << (recovered ? "recovered" : "cold start")
            << " tick=" << service.current_tick()
            << " watermark=" << service.transport_watermark()
            << " tenants=" << service.tenants().size()
            << " queue=" << service.queue_depth() << "\n";
  if (recovered) {
    std::cout << "  recovery: from_checkpoint="
              << (inc.recovered_from_checkpoint ? "yes" : "no")
              << " replayed=" << inc.recovery_replayed_records
              << " skipped=" << inc.recovery_skipped_records
              << " wal_bytes=" << inc.recovery_wal_valid_bytes
              << " wal_stop=" << svc::WalScanStopName(inc.recovery_wal_stop)
              << "\n";
  }
  std::cout << "  this run: deduped=" << inc.redelivered_deduped
            << " wal_appends=" << inc.wal_frames_appended
            << " checkpoints=" << inc.checkpoints_written << "\n";
  std::cout << "accounting: offered=" << a.offered
            << " admitted=" << a.admitted << " coalesced=" << a.coalesced
            << " shed=" << a.shed << "\n  rejected: malformed="
            << a.rejected_malformed << " insane=" << a.rejected_insane
            << " future=" << a.rejected_future
            << " stale=" << a.rejected_stale
            << " quarantined=" << a.rejected_quarantined
            << " (quarantines started: " << a.quarantines_started << ")\n"
            << "  ticks=" << a.ticks_processed
            << " drained=" << a.samples_drained << "\n";
  const auto& evictions = service.tenants().stats();
  std::cout << "tenant table: created=" << evictions.created
            << " evictions=" << evictions.evictions
            << " readmissions=" << evictions.readmissions << "\n";
  if (service.alarm_log().empty()) {
    std::cout << "alarms: none\n";
  } else {
    std::cout << "alarms (" << service.alarm_log().size() << "):\n";
    for (const svc::AlarmEvent& e : service.alarm_log()) {
      std::cout << "  t=" << e.tick << " tenant=" << e.tenant << " RAISED\n";
    }
  }
  for (const svc::DecisionEvent& e : service.decision_log()) {
    std::cout << "  decision edge: t=" << e.tick << " tenant=" << e.tenant
              << " active=" << (e.active ? "yes" : "no") << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  sds::Flags flags;
  if (!flags.Parse(
          argc, argv,
          {{"state_dir", "durable state directory (WAL + checkpoint)"},
           {"feed", "svc_sample JSONL feed to ingest"},
           {"status", "recover and report without ingesting", true},
           {"gen_feed", "write a deterministic demo feed here and exit"},
           {"ticks", "demo feed length in ticks (default 400)"},
           {"tenants", "demo feed tenant count (default 4)"},
           {"seed", "demo feed seed (default 7)"}})) {
    return flags.help_requested() ? 0 : 1;
  }

  const std::string gen_feed = flags.GetString("gen_feed", "");
  if (!gen_feed.empty()) {
    return GenerateFeed(gen_feed,
                        static_cast<std::uint32_t>(flags.GetInt("tenants", 4)),
                        static_cast<Tick>(flags.GetInt("ticks", 400)),
                        static_cast<std::uint64_t>(flags.GetInt("seed", 7)));
  }

  const std::string state_dir = flags.GetString("state_dir", "");
  if (state_dir.empty()) {
    std::cerr << "usage: svcd --state_dir=DIR (--feed=FILE | --status)\n"
                 "       svcd --gen_feed=FILE [--ticks=N --tenants=K "
                 "--seed=S]\n";
    return 1;
  }

  svc::FileStore store(state_dir);
  if (store.crashed()) {
    std::cerr << "svcd: cannot open state dir " << state_dir << "\n";
    return 1;
  }
  svc::DetectionService service(DemoConfig(), &store);
  // Recover() checkpoints over ckpt.snap whenever it replays WAL records, so
  // the bytes it may refuse are read first.
  const std::string ckpt_bytes = store.ReadCheckpoint();
  const bool recovered = service.Recover();
  std::cout << "svcd: state_dir=" << state_dir << " ("
            << (recovered ? "recovered durable state" : "no durable state")
            << ")\n";
  // Name the rung a surviving checkpoint opened at, so a refused one is
  // never silently replaced by the next ingest's cold start.
  const svc::SvcIncarnation& inc = service.incarnation();
  if (inc.recovered_from_checkpoint ||
      inc.checkpoint_status != SnapshotStatus::kOk) {
    std::cout << "svcd: checkpoint="
              << SnapshotStatusName(inc.checkpoint_status)
              << (inc.recovered_from_checkpoint ? "" : " (refused)") << "\n";
  }
  // Keep the refused bytes (read before Recover) beside the state, ahead of
  // the ingest's first checkpoint write.
  if (inc.checkpoint_status != SnapshotStatus::kOk) {
    const std::string kept = state_dir + "/ckpt.snap.refused";
    std::ofstream out(kept, std::ios::binary | std::ios::trunc);
    out.write(ckpt_bytes.data(),
              static_cast<std::streamsize>(ckpt_bytes.size()));
    if (!out.flush()) {
      std::cerr << "svcd: cannot keep the refused checkpoint as " << kept
                << "\n";
      return 1;
    }
    std::cout << "svcd: refused checkpoint kept as " << kept << "\n";
  }

  const std::string feed_path = flags.GetString("feed", "");
  if (!flags.GetBool("status", false) && feed_path.empty()) {
    std::cerr << "svcd: nothing to do (pass --feed=FILE or --status)\n";
    return 1;
  }

  if (!feed_path.empty()) {
    std::ifstream feed(feed_path);
    if (!feed) {
      std::cerr << "svcd: cannot open feed " << feed_path << "\n";
      return 1;
    }
    std::string line;
    std::uint64_t offset = 0;  // 1-based line number = transport offset
    bool alive = true;
    while (alive && std::getline(feed, line)) {
      ++offset;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      std::optional<svc::SvcSample> sample = svc::ParseSampleLine(line);
      if (!sample) {
        alive = service.OfferMalformed(offset);
        continue;
      }
      sample->offset = offset;
      if (sample->tick > service.current_tick()) {
        alive = service.AdvanceTick(sample->tick);
        if (!alive) break;
      }
      alive = service.Offer(*sample);
    }
    // Quiesce: drain the queue, then make the final state durable.
    while (alive && service.queue_depth() > 0) {
      alive = service.AdvanceTick(service.current_tick() + 1);
    }
    if (alive) alive = service.Checkpoint();
    if (!alive) {
      std::cerr << "svcd: stable store failed mid-ingest; durable state is "
                   "intact up to the last full write — re-run to recover\n";
      PrintReport(service, recovered);
      return 1;
    }
    std::cout << "ingested " << offset << " feed lines from " << feed_path
              << "\n";
  }

  PrintReport(service, recovered);
  return 0;
}
