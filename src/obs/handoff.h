// Warm detector-state handoff across hosts and restarts (DESIGN.md §17).
//
// When a VM migrates (mitigation or evacuation), its per-host detector
// state — MA/EWMA windows, consecutive-violation counters, alarm edges —
// would otherwise stay behind and the destination detector would re-warm
// from scratch, opening a blind window of roughly W + h_c * dW ticks that
// an attacker can exploit by deliberately triggering mitigations. A
// handoff is one common/snapshot.h envelope — kind "sds-handoff", the
// detector's config fingerprint, then the source tick and the detector's
// SaveState fields — applied to the destination detector. A monitoring
// restart is the same handoff with source and destination on one host.
//
// Loud cold-start contract: on any envelope rejection — version skew,
// config-fingerprint mismatch, checksum — the destination detector is left
// exactly as constructed (cold) and the result says so, with the failing
// rung, so callers count and report every cold start instead of silently
// eating the blind window. A field stream the detector refuses reports
// kCorrupt.
//
// Sampler interval phase: one simulator tick is one T_PCM interval, so the
// handoff carries `source_tick` and the contract is that the destination
// detector is CONSTRUCTED (its fresh sampler Start()s and re-baselines) at
// that same tick boundary — the sample cadence then continues seamlessly,
// deltas intact, exactly like the snapshot-restore contract.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/snapshot.h"
#include "common/types.h"
#include "detect/sds_detector.h"

namespace sds::obs {

// Envelope kind of a handoff blob.
inline constexpr char kSdsHandoffKind[] = "sds-handoff";

struct HandoffResult {
  // True only when the envelope opened and the destination detector fully
  // restored the source state.
  bool warm = false;
  // kOk when warm; otherwise the rung that failed (kBadFingerprint =
  // destination configured differently than the source, the expected
  // reject; anything else = corruption or version skew).
  SnapshotStatus status = SnapshotStatus::kOk;
  // Tick boundary the source detector was packed at.
  Tick source_tick = 0;
};

// Warm/cold accounting across many handoffs (the eval harness aggregates
// one of these per run).
struct HandoffStats {
  std::uint64_t attempts = 0;
  std::uint64_t warm = 0;
  std::uint64_t cold_fingerprint = 0;  // config mismatch (expected reject)
  std::uint64_t cold_other = 0;        // corruption / version skew / etc.

  void Count(const HandoffResult& r) {
    ++attempts;
    if (r.warm) {
      ++warm;
    } else if (r.status == SnapshotStatus::kBadFingerprint) {
      ++cold_fingerprint;
    } else {
      ++cold_other;
    }
  }
};

// Packs the source detector's state for a migration leaving at
// `source_tick` (pass Cluster::now() at the tick boundary the VM moves).
std::string PackSdsHandoff(const detect::SdsDetector& detector,
                           Tick source_tick);

// Applies a handoff blob to the freshly-constructed destination detector.
// On an envelope rejection the detector is untouched (cold start) and the
// result names the failing rung.
HandoffResult ApplySdsHandoff(std::string_view blob,
                              detect::SdsDetector* detector);

}  // namespace sds::obs
