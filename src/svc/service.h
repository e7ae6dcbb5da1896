// The crash-consistent streaming detection service (DESIGN.md §14).
//
// DetectionService is the long-running ingest half of the paper's detection
// plane: a feed offers per-tenant counter samples (at-least-once, possibly
// redelivered after a restart), the admission ladder judges each one, a
// bounded queue absorbs bursts under backpressure tiers, and per-tenant
// pipelines raise the alarms. Everything that matters survives a crash:
//
//   WRITE-AHEAD: every judged event and every tick advance is logged to the
//   StableStore (svc/wal.h frames) BEFORE its effects are applied to
//   volatile state. Periodically the whole volatile state is checkpointed
//   as one common/snapshot.h envelope (kind "svc_checkpoint", bound to the
//   config fingerprint) and the WAL prefix it covers is truncated.
//
//   RECOVERY INVARIANT: restore the checkpoint, replay the WAL tail
//   (skipping records the checkpoint already covers, by LSN), and the
//   service's decision log, alarm sequence and pinned accounting are
//   BIT-IDENTICAL to a never-crashed run fed the same stream — the feed
//   only has to redeliver from its last acknowledged position or earlier;
//   the transport-offset watermark deduplicates the overlap. Pinned by
//   tests/eval/service_chaos_test.
//
// The service is single-threaded and deterministic: no wall clocks, no
// randomness, ordered containers only. Ticks are DATA time, advanced by the
// caller (AdvanceTick), never by a timer.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/snapshot.h"
#include "common/types.h"
#include "svc/admission.h"
#include "svc/pipeline.h"
#include "svc/sample.h"
#include "svc/store.h"
#include "svc/tenant_table.h"
#include "svc/wal.h"

namespace sds::svc {

struct SvcConfig {
  PipelineConfig pipeline;
  AdmissionConfig admission;
  // Tenant-table capacity (LRU eviction beyond it).
  std::size_t max_tenants = 64;
  // Queue entries drained into pipelines per tick advance.
  std::uint32_t drain_per_tick = 128;
  // Checkpoint cadence, in processed ticks.
  Tick checkpoint_every_ticks = 50;

  // Binds checkpoints and their WAL to this exact configuration; a config
  // change orphans the durable state (fresh start) instead of silently
  // feeding old analyzer windows into differently-tuned detectors.
  std::uint64_t Fingerprint() const;
};

// A decision-state EDGE for one tenant: active flipped at `tick`. The full
// per-sample verdict stream is deliberately not logged (it is unbounded and
// almost always "still inactive"); edges are the decisions that matter.
struct DecisionEvent {
  Tick tick = 0;
  TenantId tenant = 0;
  bool active = false;

  bool operator==(const DecisionEvent&) const = default;
};

// A rising edge only — the service's alarm sequence.
struct AlarmEvent {
  Tick tick = 0;
  TenantId tenant = 0;

  bool operator==(const AlarmEvent&) const = default;
};

// Counters checkpointed with the service (part of the recovery pin).
struct SvcAccounting {
  std::uint64_t offered = 0;  // events judged (post transport dedupe)
  std::uint64_t admitted = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected_malformed = 0;
  std::uint64_t rejected_insane = 0;
  std::uint64_t rejected_future = 0;
  std::uint64_t rejected_stale = 0;
  std::uint64_t rejected_quarantined = 0;
  std::uint64_t quarantines_started = 0;
  std::uint64_t ticks_processed = 0;
  std::uint64_t samples_drained = 0;

  bool operator==(const SvcAccounting&) const = default;
};

// Per-incarnation observability (NOT checkpointed, excluded from the pin:
// a recovered run legitimately differs from the reference here).
struct SvcIncarnation {
  std::uint64_t redelivered_deduped = 0;
  std::uint64_t wal_frames_appended = 0;
  std::uint64_t checkpoints_written = 0;
  bool recovered_from_checkpoint = false;
  // The rung the surviving checkpoint opened at; kOk also when the store
  // held none (then recovered_from_checkpoint is false too).
  SnapshotStatus checkpoint_status = SnapshotStatus::kOk;
  std::uint64_t recovery_replayed_records = 0;
  std::uint64_t recovery_skipped_records = 0;
  std::uint64_t recovery_wal_valid_bytes = 0;
  SnapshotStatus recovery_wal_stop = SnapshotStatus::kOk;
};

class DetectionService {
 public:
  // The store must outlive the service.
  DetectionService(const SvcConfig& config, StableStore* store);

  // Rebuilds state from the store's surviving checkpoint + WAL tail. Call
  // once, before the first Offer. Returns true when anything was recovered
  // (false = cold start). Ends by re-checkpointing so the torn tail is
  // dropped and the recovered state is durable again.
  bool Recover();

  // Offers one parsed event (sample.offset assigned by the feed, strictly
  // increasing). Returns false only when the service is dead (store crash).
  bool Offer(const SvcSample& sample);
  // Offers one unparseable feed line, identified by its transport offset.
  bool OfferMalformed(std::uint64_t offset);

  // Advances data time to `now`: logs the tick, drains the queue into the
  // tenant pipelines, maybe checkpoints. `now` at or behind the current
  // tick is a no-op (idempotent under redelivered drive loops).
  bool AdvanceTick(Tick now);

  // Forces a checkpoint + WAL truncation now. Returns false on store crash.
  bool Checkpoint();

  // True once the store crashed; every mutation fails from then on.
  bool dead() const;

  Tick current_tick() const { return current_tick_; }
  std::size_t queue_depth() const { return queue_.size(); }
  std::uint64_t transport_watermark() const { return transport_watermark_; }
  const SvcAccounting& accounting() const { return acct_; }
  const SvcIncarnation& incarnation() const { return inc_; }
  const TenantTable& tenants() const { return table_; }
  const std::vector<DecisionEvent>& decision_log() const {
    return decision_log_;
  }
  const std::vector<AlarmEvent>& alarm_log() const { return alarm_log_; }

 private:
  struct QueueEntry {
    TenantId tenant = 0;
    Tick tick = 0;
    std::uint64_t access_num = 0;
    std::uint64_t miss_num = 0;
  };

  bool LogRecord(WalRecord& record);
  void ApplyEvent(const WalRecord& record);
  void ApplyTick(const WalRecord& record);
  void DrainQueue();
  bool RestoreFromPayload(SnapshotReader& r, std::uint64_t* last_lsn);
  void ResetVolatileState();

  SvcConfig config_;
  StableStore* store_;

  Tick current_tick_ = -1;
  std::uint64_t transport_watermark_ = 0;
  std::uint64_t next_lsn_ = 1;
  // The service is single-threaded by charter (see the header comment); the
  // queue and the tenant table are the two structures a parallel tick engine
  // would be most tempted to share. Shard-owned pins that door shut: sdslint
  // rejects any service method that takes a lock around them — the parallel
  // engine must partition tenants across service instances instead.
  std::deque<QueueEntry> queue_ SDS_SHARD_OWNED;
  TenantTable table_ SDS_SHARD_OWNED;
  SvcAccounting acct_;
  SvcIncarnation inc_;
  std::vector<DecisionEvent> decision_log_;
  std::vector<AlarmEvent> alarm_log_;

  Tick ticks_since_checkpoint_ = 0;
  std::uint64_t wal_pending_bytes_ = 0;
  bool replaying_ = false;
};

}  // namespace sds::svc
