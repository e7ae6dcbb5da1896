// The service's ingest admission ladder and backpressure tiers.
//
// Every offered event gets exactly one Disposition, judged in a FIXED
// ladder order so a sample that is broken in several ways is always
// classified the same way (and the accounting is stable across runs):
//
//   1. kRejectMalformed    — the line did not parse; no tenant to blame.
//   2. kRejectQuarantined  — the tenant is serving a quarantine sentence.
//   3. kRejectInsane       — physically impossible counters, judged by the
//                            same detect::SampleIsSane the in-VM
//                            detectors use.
//   4. kRejectFuture       — data timestamp ahead of the service clock by
//                            more than max_future_ticks.
//   5. kRejectStale        — data timestamp at or behind the tenant's
//                            newest enqueued tick (duplicates and
//                            out-of-order arrivals; under at-least-once
//                            redelivery these are EXPECTED, so they are
//                            never offenses).
//   6. backpressure tiers  — kAdmit below coalesce_depth; kCoalesce when
//                            the queue is deep and holds an entry for the
//                            same tenant to merge into; kShed at
//                            shed_depth (dropped with accounting, never
//                            with an OOM).
//
// Offenses: rungs 3 and 4 increment the tenant's offense counter; at
// quarantine_offense_threshold the tenant is quarantined for
// quarantine_ticks (a repeat offender drowns its own feed, not the
// service). Malformed lines carry no tenant and count globally only.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.h"
#include "detect/degrade.h"
#include "svc/sample.h"
#include "svc/tenant_table.h"

namespace sds::svc {

enum class Disposition : std::uint32_t {
  kAdmit = 0,
  kCoalesce,
  kShed,
  kRejectMalformed,
  kRejectInsane,
  kRejectFuture,
  kRejectStale,
  kRejectQuarantined,
  kDispositionCount,
};

inline constexpr std::size_t kDispositionCount =
    static_cast<std::size_t>(Disposition::kDispositionCount);

const char* DispositionName(Disposition d);

// True for the rungs that count against a tenant's quarantine threshold.
bool DispositionIsOffense(Disposition d);

struct AdmissionConfig {
  // Ladder rung 4: tolerated clock skew of the feed, in ticks.
  Tick max_future_ticks = 100;
  // Offenses before a tenant is quarantined, and for how long.
  std::uint32_t quarantine_offense_threshold = 3;
  Tick quarantine_ticks = 200;
  // Backpressure tiers by queue depth at offer time.
  std::size_t coalesce_depth = 64;
  std::size_t shed_depth = 256;
};

// Judges one PARSED sample down rungs 2..6. Pure: mutates nothing; the
// caller logs the verdict to the WAL and then applies it. `entry` may be
// null (tenant not yet tabled); `queue_has_tenant` reports whether the
// ingest queue already holds an entry this sample could coalesce into.
Disposition JudgeSample(const SvcSample& sample, const AdmissionConfig& config,
                        Tick current_tick, const TenantEntry* entry,
                        std::size_t queue_depth, bool queue_has_tenant);

// Applies one offense to the tenant's record; starts a quarantine (and
// resets the counter) when the threshold is reached. Returns true when a
// quarantine started.
bool RecordOffense(TenantEntry& entry, const AdmissionConfig& config,
                   Tick current_tick);

}  // namespace sds::svc
