#include "eval/service_chaos.h"

#include <algorithm>
#include <ostream>

#include "common/rng.h"
#include "eval/aggregate.h"
#include "svc/store.h"

namespace sds::eval {

namespace {

// Poison-input rates, per clean-tenant sample (deterministic hash).
constexpr double kMalformedRate = 0.01;
constexpr double kDuplicateRate = 0.02;
constexpr double kFutureRate = 0.004;
// The poison tenant emits an insane sample every kInsaneEvery ticks.
constexpr Tick kInsaneEvery = 7;
// Ghost-tenant bursts: every kBurstEvery ticks, kBurstTenants extra tenants
// emit for kBurstLen ticks (queue pressure + LRU pressure).
constexpr Tick kBurstEvery = 300;
constexpr Tick kBurstLen = 40;
constexpr std::uint32_t kBurstTenants = 12;

bool TenantAttacked(std::uint64_t seed, std::uint32_t tenant,
                    double fraction) {
  return Draw01(seed, tenant, 0, 0xa77ac) < fraction;
}

// One feed delivery: a parsed sample or a garbled line. `at_tick` is the
// service-clock tick the event arrives at.
struct FeedEvent {
  bool malformed = false;
  Tick at_tick = 0;
  svc::SvcSample sample;
};

// The full deterministic feed, offsets 1..N in arrival order. Identical for
// the reference run and every chaos re-drive.
std::vector<FeedEvent> BuildChaosFeed(const ServiceChaosConfig& c) {
  std::vector<FeedEvent> feed;
  std::uint64_t next_offset = 1;
  const std::uint32_t poison_tenant = c.tenants;

  const auto emit = [&](Tick at, bool malformed, std::uint32_t tenant,
                        Tick data_tick, std::uint64_t access,
                        std::uint64_t miss) {
    FeedEvent e;
    e.malformed = malformed;
    e.at_tick = at;
    e.sample.offset = next_offset++;
    e.sample.tenant = tenant;
    e.sample.tick = data_tick;
    e.sample.access_num = access;
    e.sample.miss_num = miss;
    feed.push_back(e);
  };

  const auto clean_values = [&](std::uint32_t tenant, Tick t,
                                std::uint64_t* access, std::uint64_t* miss) {
    const bool attacked =
        t >= c.attack_start &&
        TenantAttacked(c.seed, tenant, c.attacked_fraction);
    double a = 2200.0 + 600.0 * Draw01(c.seed, tenant, t, 1);
    if (attacked) a += 2600.0 + 400.0 * Draw01(c.seed, tenant, t, 2);
    const double ratio = 0.25 + 0.10 * Draw01(c.seed, tenant, t, 3);
    *access = static_cast<std::uint64_t>(a);
    *miss = static_cast<std::uint64_t>(a * ratio);
  };

  for (Tick t = 0; t < c.ticks; ++t) {
    for (std::uint32_t u = 0; u < c.tenants; ++u) {
      std::uint64_t access = 0;
      std::uint64_t miss = 0;
      clean_values(u, t, &access, &miss);
      if (Draw01(c.seed, u, t, 4) < kMalformedRate) {
        // The line got garbled in transit: one malformed delivery instead
        // of the sample.
        emit(t, true, 0, 0, 0, 0);
      } else {
        emit(t, false, u, t, access, miss);
        if (t > 0 && Draw01(c.seed, u, t, 5) < kDuplicateRate) {
          // The feed stutters: yesterday's reading again (stale rung).
          std::uint64_t pa = 0;
          std::uint64_t pm = 0;
          clean_values(u, t - 1, &pa, &pm);
          emit(t, false, u, t - 1, pa, pm);
        }
        if (Draw01(c.seed, u, t, 6) < kFutureRate) {
          // A clock-skewed duplicate from the future (future rung).
          emit(t, false, u, t + c.svc.admission.max_future_ticks + 10,
               access, miss);
        }
      }
    }
    // The poison tenant sprays physically impossible samples (miss >
    // access) on a fixed cadence: offense -> quarantine cycles.
    if (t % kInsaneEvery == 0) {
      emit(t, false, poison_tenant, t, 1000, 2000);
    }
    // Ghost-tenant bursts: table pressure (LRU evictions) + queue pressure
    // (coalesce / shed tiers).
    if (t % kBurstEvery < kBurstLen) {
      // Alternate between two ghost cohorts: cohort A's stale entries are
      // what cohort B evicts, and when A returns two bursts later its
      // re-creations count as readmissions.
      const auto burst_index = static_cast<std::uint32_t>(t / kBurstEvery);
      for (std::uint32_t g = 0; g < kBurstTenants; ++g) {
        const std::uint32_t ghost = 1000 + (burst_index % 2) * 100 + g;
        emit(t, false, ghost, t,
             1500 + static_cast<std::uint64_t>(
                        300.0 * Draw01(c.seed, ghost, t, 7)),
             400);
      }
    }
  }
  return feed;
}

// Drives `service` over the whole feed, advancing the service clock from
// the events' arrival ticks and finishing with a quiescing drain. Safe to
// call again on a recovered service: tick advances and transport offsets
// the service already processed deduplicate to no-ops. Returns false when
// the service died mid-drive (planned crash).
bool DriveFeed(svc::DetectionService& service,
               const std::vector<FeedEvent>& feed, Tick feed_ticks) {
  for (const FeedEvent& e : feed) {
    if (!service.AdvanceTick(e.at_tick)) return false;
    if (e.malformed) {
      if (!service.OfferMalformed(e.sample.offset)) return false;
    } else {
      if (!service.Offer(e.sample)) return false;
    }
  }
  // Quiesce: keep ticking until the backlog drains (bounded — shed depth
  // caps the queue, drain_per_tick > 0 empties it).
  Tick t = feed_ticks;
  while (service.queue_depth() > 0) {
    if (!service.AdvanceTick(t++)) return false;
  }
  return true;
}

double ShedRate(const svc::SvcAccounting& acct) {
  return acct.offered == 0
             ? 0.0
             : static_cast<double>(acct.shed) /
                   static_cast<double>(acct.offered);
}

}  // namespace

svc::SvcConfig ChaosSvcConfig() {
  svc::SvcConfig c;
  c.pipeline.det.window = 40;
  c.pipeline.det.step = 10;
  c.pipeline.det.h_c = 4;
  c.pipeline.profile_len = 120;
  c.admission.max_future_ticks = 100;
  c.admission.quarantine_offense_threshold = 3;
  c.admission.quarantine_ticks = 150;
  c.admission.coalesce_depth = 10;
  c.admission.shed_depth = 16;
  c.max_tenants = 12;
  c.drain_per_tick = 2;
  c.checkpoint_every_ticks = 40;
  return c;
}

ServiceChaosResult RunServiceChaosSweep(const ServiceChaosConfig& config,
                                        std::ostream* accounting_out) {
  ServiceChaosResult result;
  const std::vector<FeedEvent> feed = BuildChaosFeed(config);
  result.feed_events = feed.size();

  // Reference: the never-crashed run.
  svc::MemStore ref_store;
  svc::DetectionService reference(config.svc, &ref_store);
  reference.Recover();
  DriveFeed(reference, feed, config.ticks);
  result.ref_wal_appends = reference.incarnation().wal_frames_appended;
  result.ref_checkpoints = reference.incarnation().checkpoints_written;
  result.ref_alarms = reference.alarm_log().size();
  result.ref_decisions = reference.decision_log().size();
  result.ref_accounting = reference.accounting();
  result.ref_shed_rate = ShedRate(reference.accounting());

  // Crash-point grid, scaled to the reference run's operation counts.
  std::vector<fault::ServiceCrashPoint> grid;
  for (const double f : kCrashOpFractions) {
    const auto wal_op = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               f * static_cast<double>(result.ref_wal_appends)));
    const auto ckpt_op = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               f * static_cast<double>(result.ref_checkpoints)));
    for (const double b : kCrashByteFractions) {
      fault::ServiceCrashPoint p;
      p.kind = fault::ServiceFaultKind::kCrashMidWalAppend;
      p.op_index = wal_op;
      p.byte_fraction = b;
      grid.push_back(p);
      p.kind = fault::ServiceFaultKind::kCrashMidCheckpoint;
      p.op_index = ckpt_op;
      grid.push_back(p);
    }
    fault::ServiceCrashPoint p;
    p.kind = fault::ServiceFaultKind::kCrashAfterWalAppend;
    p.op_index = wal_op;
    p.byte_fraction = 1.0;
    grid.push_back(p);
  }

  result.points.resize(grid.size());
  const auto worker = [&](int index) {
    const fault::ServiceCrashPoint& point =
        grid[static_cast<std::size_t>(index)];
    ChaosPointResult& r = result.points[static_cast<std::size_t>(index)];
    r.kind = point.kind;
    r.op_index = point.op_index;
    r.byte_fraction = point.byte_fraction;

    fault::ServiceFaultPlan plan;
    plan.points.push_back(point);
    svc::MemStore doomed_store(plan);
    svc::DetectionService doomed(config.svc, &doomed_store);
    doomed.Recover();
    DriveFeed(doomed, feed, config.ticks);
    r.fired = doomed_store.crashed();
    r.crash_tick = doomed.current_tick();

    svc::MemStore recovered_store = doomed_store.Reincarnate();
    svc::DetectionService recovered(config.svc, &recovered_store);
    recovered.Recover();
    DriveFeed(recovered, feed, config.ticks);

    const svc::SvcIncarnation& inc = recovered.incarnation();
    r.recovered_from_checkpoint = inc.recovered_from_checkpoint;
    r.replayed_records = inc.recovery_replayed_records;
    r.skipped_records = inc.recovery_skipped_records;
    r.redelivered_deduped = inc.redelivered_deduped;
    r.recovery_wal_valid_bytes = inc.recovery_wal_valid_bytes;
    r.wal_stop = inc.recovery_wal_stop;
    r.alarms = recovered.alarm_log().size();
    r.shed_rate = ShedRate(recovered.accounting());
    r.bit_identical = recovered.decision_log() == reference.decision_log() &&
                      recovered.alarm_log() == reference.alarm_log() &&
                      recovered.accounting() == reference.accounting();
  };
  ParallelFor(static_cast<int>(grid.size()), config.threads, worker);

  result.all_bit_identical = true;
  for (const ChaosPointResult& r : result.points) {
    result.all_bit_identical = result.all_bit_identical && r.bit_identical;
  }

  if (accounting_out) {
    const svc::SvcAccounting& a = result.ref_accounting;
    *accounting_out
        << "{\"type\":\"svc_ref\",\"events\":" << result.feed_events
        << ",\"offered\":" << a.offered << ",\"admitted\":" << a.admitted
        << ",\"coalesced\":" << a.coalesced << ",\"shed\":" << a.shed
        << ",\"rejected_malformed\":" << a.rejected_malformed
        << ",\"rejected_insane\":" << a.rejected_insane
        << ",\"rejected_future\":" << a.rejected_future
        << ",\"rejected_stale\":" << a.rejected_stale
        << ",\"rejected_quarantined\":" << a.rejected_quarantined
        << ",\"quarantines\":" << a.quarantines_started
        << ",\"ticks\":" << a.ticks_processed
        << ",\"drained\":" << a.samples_drained
        << ",\"wal_appends\":" << result.ref_wal_appends
        << ",\"checkpoints\":" << result.ref_checkpoints
        << ",\"alarms\":" << result.ref_alarms
        << ",\"decisions\":" << result.ref_decisions
        << ",\"shed_rate\":" << result.ref_shed_rate << "}\n";
    for (const ChaosPointResult& r : result.points) {
      *accounting_out
          << "{\"type\":\"svc_recovery\",\"kind\":\""
          << fault::ServiceFaultKindName(r.kind)
          << "\",\"op_index\":" << r.op_index
          << ",\"byte_fraction\":" << r.byte_fraction
          << ",\"fired\":" << (r.fired ? 1 : 0)
          << ",\"crash_tick\":" << r.crash_tick
          << ",\"from_checkpoint\":" << (r.recovered_from_checkpoint ? 1 : 0)
          << ",\"replayed\":" << r.replayed_records
          << ",\"skipped\":" << r.skipped_records
          << ",\"deduped\":" << r.redelivered_deduped
          << ",\"wal_valid_bytes\":" << r.recovery_wal_valid_bytes
          << ",\"wal_stop\":\"" << svc::WalScanStopName(r.wal_stop)
          << "\",\"bit_identical\":" << (r.bit_identical ? 1 : 0)
          << ",\"alarms\":" << r.alarms << ",\"shed_rate\":" << r.shed_rate
          << "}\n";
    }
  }

  return result;
}

void WriteServiceChaosJson(const ServiceChaosConfig& config,
                           const ServiceChaosResult& result,
                           std::ostream& os) {
  os << "{\"bench\":\"svc\",\"tenants\":" << config.tenants
     << ",\"ticks\":" << config.ticks << ",\"seed\":" << config.seed
     << ",\"threads\":" << config.threads
     << ",\"feed_events\":" << result.feed_events
     << ",\"ref_wal_appends\":" << result.ref_wal_appends
     << ",\"ref_checkpoints\":" << result.ref_checkpoints
     << ",\"ref_alarms\":" << result.ref_alarms
     << ",\"ref_decisions\":" << result.ref_decisions
     << ",\"ref_shed_rate\":" << result.ref_shed_rate
     << ",\"ref_admitted\":" << result.ref_accounting.admitted
     << ",\"ref_coalesced\":" << result.ref_accounting.coalesced
     << ",\"ref_quarantines\":" << result.ref_accounting.quarantines_started
     << ",\"crash_points\":" << result.points.size()
     << ",\"all_bit_identical\":"
     << (result.all_bit_identical ? "true" : "false")
     << ",\"recovery_curve\":[";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const ChaosPointResult& p = result.points[i];
    if (i) os << ",";
    os << "{\"kind\":\"" << fault::ServiceFaultKindName(p.kind)
       << "\",\"op_index\":" << p.op_index
       << ",\"byte_fraction\":" << p.byte_fraction
       << ",\"fired\":" << (p.fired ? "true" : "false")
       << ",\"crash_tick\":" << p.crash_tick
       << ",\"replayed\":" << p.replayed_records
       << ",\"deduped\":" << p.redelivered_deduped
       << ",\"from_checkpoint\":"
       << (p.recovered_from_checkpoint ? "true" : "false")
       << ",\"bit_identical\":" << (p.bit_identical ? "true" : "false")
       << ",\"shed_rate\":" << p.shed_rate << "}";
  }
  os << "]}";
}

}  // namespace sds::eval
