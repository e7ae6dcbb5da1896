#include "svc/service.h"

#include <algorithm>
#include <string_view>

#include "common/check.h"
#include "common/snapshot.h"

namespace sds::svc {

namespace {

constexpr const char* kCheckpointKind = "svc_checkpoint";

}  // namespace

std::uint64_t SvcConfig::Fingerprint() const {
  SnapshotWriter w;
  w.U64(pipeline.det.window);
  w.U64(pipeline.det.step);
  w.F64(pipeline.det.alpha);
  w.F64(pipeline.det.boundary_k);
  w.I64(pipeline.det.h_c);
  w.F64(pipeline.det.wp_multiplier);
  w.U64(pipeline.det.delta_wp);
  w.I64(pipeline.det.h_p);
  w.F64(pipeline.det.period_tolerance);
  w.U32(pipeline.profile_len);
  // The sanity rung is always on with both checks; the two bytes keep the
  // fingerprint layout of checkpoints already written.
  w.Bool(true);
  w.U64(detect::kMaxSampleDeltaPerTick);
  w.Bool(true);
  w.I64(admission.max_future_ticks);
  w.U32(admission.quarantine_offense_threshold);
  w.I64(admission.quarantine_ticks);
  w.U64(admission.coalesce_depth);
  w.U64(admission.shed_depth);
  w.U64(max_tenants);
  w.U32(drain_per_tick);
  w.I64(checkpoint_every_ticks);
  return Fnv1a(w.data());
}

DetectionService::DetectionService(const SvcConfig& config, StableStore* store)
    : config_(config),
      store_(store),
      table_(config.pipeline, config.max_tenants) {
  SDS_CHECK(store_ != nullptr, "service needs a stable store");
}

bool DetectionService::dead() const { return store_->crashed(); }

bool DetectionService::LogRecord(WalRecord& record) {
  record.lsn = next_lsn_;
  const std::string frame = WalWriter::EncodeFrame(record);
  if (!store_->AppendWal(frame)) return false;
  ++next_lsn_;
  wal_pending_bytes_ += frame.size();
  ++inc_.wal_frames_appended;
  return true;
}

void DetectionService::ApplyEvent(const WalRecord& record) {
  const SvcSample& s = record.sample;
  transport_watermark_ = std::max(transport_watermark_, s.offset);
  ++acct_.offered;
  switch (static_cast<Disposition>(record.disposition)) {
    case Disposition::kAdmit: {
      QueueEntry entry;
      entry.tenant = s.tenant;
      entry.tick = s.tick;
      entry.access_num = s.access_num;
      entry.miss_num = s.miss_num;
      queue_.push_back(entry);
      table_.Touch(s.tenant).last_enqueued_tick = s.tick;
      ++acct_.admitted;
      break;
    }
    case Disposition::kCoalesce: {
      // Merge into the newest queued entry for the same tenant: the deltas
      // sum (both cover disjoint intervals) and the merged entry reports
      // the newest tick.
      bool merged = false;
      for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
        if (it->tenant == s.tenant) {
          it->access_num += s.access_num;
          it->miss_num += s.miss_num;
          it->tick = std::max(it->tick, s.tick);
          merged = true;
          break;
        }
      }
      if (!merged) {
        QueueEntry entry;
        entry.tenant = s.tenant;
        entry.tick = s.tick;
        entry.access_num = s.access_num;
        entry.miss_num = s.miss_num;
        queue_.push_back(entry);
      }
      table_.Touch(s.tenant).last_enqueued_tick = s.tick;
      ++acct_.coalesced;
      break;
    }
    case Disposition::kShed:
      ++acct_.shed;
      break;
    case Disposition::kRejectMalformed:
      ++acct_.rejected_malformed;
      break;
    case Disposition::kRejectInsane:
    case Disposition::kRejectFuture: {
      if (static_cast<Disposition>(record.disposition) ==
          Disposition::kRejectInsane) {
        ++acct_.rejected_insane;
      } else {
        ++acct_.rejected_future;
      }
      TenantEntry& entry = table_.Touch(s.tenant);
      if (RecordOffense(entry, config_.admission, current_tick_)) {
        ++acct_.quarantines_started;
      }
      break;
    }
    case Disposition::kRejectStale:
      ++acct_.rejected_stale;
      break;
    case Disposition::kRejectQuarantined:
      ++acct_.rejected_quarantined;
      break;
    case Disposition::kDispositionCount:
      break;
  }
}

void DetectionService::DrainQueue() {
  for (std::uint32_t i = 0; i < config_.drain_per_tick && !queue_.empty();
       ++i) {
    const QueueEntry entry = queue_.front();
    queue_.pop_front();
    ++acct_.samples_drained;
    TenantEntry& tenant = table_.Touch(entry.tenant);
    pcm::PcmSample sample;
    sample.tick = entry.tick;
    sample.access_num = entry.access_num;
    sample.miss_num = entry.miss_num;
    const PipelineDecision decision = tenant.pipeline.OnSample(sample);
    if (decision.alarm) {
      alarm_log_.push_back(AlarmEvent{entry.tick, entry.tenant});
    }
    if (decision.alarm || decision.cleared) {
      decision_log_.push_back(
          DecisionEvent{entry.tick, entry.tenant, decision.active});
    }
  }
}

void DetectionService::ApplyTick(const WalRecord& record) {
  current_tick_ = record.tick;
  ++acct_.ticks_processed;
  DrainQueue();
}

bool DetectionService::Offer(const SvcSample& sample) {
  if (dead()) return false;
  if (sample.offset <= transport_watermark_) {
    ++inc_.redelivered_deduped;
    return true;
  }
  const TenantEntry* entry = table_.Find(sample.tenant);
  bool queue_has_tenant = false;
  for (const QueueEntry& q : queue_) {
    if (q.tenant == sample.tenant) {
      queue_has_tenant = true;
      break;
    }
  }
  const Disposition verdict =
      JudgeSample(sample, config_.admission, current_tick_, entry,
                  queue_.size(), queue_has_tenant);
  WalRecord record;
  record.kind = WalRecordKind::kEvent;
  record.sample = sample;
  record.disposition = static_cast<std::uint32_t>(verdict);
  if (!LogRecord(record)) return false;
  ApplyEvent(record);
  return true;
}

bool DetectionService::OfferMalformed(std::uint64_t offset) {
  if (dead()) return false;
  if (offset <= transport_watermark_) {
    ++inc_.redelivered_deduped;
    return true;
  }
  WalRecord record;
  record.kind = WalRecordKind::kEvent;
  record.sample.offset = offset;
  record.disposition =
      static_cast<std::uint32_t>(Disposition::kRejectMalformed);
  if (!LogRecord(record)) return false;
  ApplyEvent(record);
  return true;
}

bool DetectionService::AdvanceTick(Tick now) {
  if (dead()) return false;
  if (now <= current_tick_) return true;  // already processed (redelivery)
  WalRecord record;
  record.kind = WalRecordKind::kTick;
  record.tick = now;
  if (!LogRecord(record)) return false;
  ApplyTick(record);
  ++ticks_since_checkpoint_;
  if (ticks_since_checkpoint_ >= config_.checkpoint_every_ticks) {
    return Checkpoint();
  }
  return true;
}

bool DetectionService::Checkpoint() {
  if (dead()) return false;
  if (replaying_) return true;  // never truncate an unreplayed WAL tail
  SnapshotWriter w;
  w.I64(current_tick_);
  w.U64(transport_watermark_);
  w.U64(next_lsn_ - 1);  // last LSN the checkpoint covers
  w.U64(queue_.size());
  for (const QueueEntry& q : queue_) {
    w.U32(q.tenant);
    w.I64(q.tick);
    w.U64(q.access_num);
    w.U64(q.miss_num);
  }
  table_.SaveState(w);
  w.U64(acct_.offered);
  w.U64(acct_.admitted);
  w.U64(acct_.coalesced);
  w.U64(acct_.shed);
  w.U64(acct_.rejected_malformed);
  w.U64(acct_.rejected_insane);
  w.U64(acct_.rejected_future);
  w.U64(acct_.rejected_stale);
  w.U64(acct_.rejected_quarantined);
  w.U64(acct_.quarantines_started);
  w.U64(acct_.ticks_processed);
  w.U64(acct_.samples_drained);
  w.U64(decision_log_.size());
  for (const DecisionEvent& d : decision_log_) {
    w.I64(d.tick);
    w.U32(d.tenant);
    w.Bool(d.active);
  }
  w.U64(alarm_log_.size());
  for (const AlarmEvent& a : alarm_log_) {
    w.I64(a.tick);
    w.U32(a.tenant);
  }
  const std::string blob =
      SealSnapshot(kCheckpointKind, config_.Fingerprint(), w.data());
  if (!store_->WriteCheckpoint(blob)) return false;
  ++inc_.checkpoints_written;
  if (!store_->TruncateWal(wal_pending_bytes_)) return false;
  wal_pending_bytes_ = 0;
  ticks_since_checkpoint_ = 0;
  return true;
}

bool DetectionService::RestoreFromPayload(SnapshotReader& r,
                                          std::uint64_t* last_lsn) {
  current_tick_ = r.I64();
  transport_watermark_ = r.U64();
  *last_lsn = r.U64();
  const std::uint64_t queue_len = r.U64();
  if (!r.ok()) return false;
  queue_.clear();
  for (std::uint64_t i = 0; i < queue_len; ++i) {
    QueueEntry q;
    q.tenant = r.U32();
    q.tick = r.I64();
    q.access_num = r.U64();
    q.miss_num = r.U64();
    if (!r.ok()) return false;
    queue_.push_back(q);
  }
  if (!table_.RestoreState(r)) return false;
  acct_.offered = r.U64();
  acct_.admitted = r.U64();
  acct_.coalesced = r.U64();
  acct_.shed = r.U64();
  acct_.rejected_malformed = r.U64();
  acct_.rejected_insane = r.U64();
  acct_.rejected_future = r.U64();
  acct_.rejected_stale = r.U64();
  acct_.rejected_quarantined = r.U64();
  acct_.quarantines_started = r.U64();
  acct_.ticks_processed = r.U64();
  acct_.samples_drained = r.U64();
  const std::uint64_t decisions = r.U64();
  if (!r.ok()) return false;
  decision_log_.clear();
  for (std::uint64_t i = 0; i < decisions; ++i) {
    DecisionEvent d;
    d.tick = r.I64();
    d.tenant = r.U32();
    d.active = r.Bool();
    if (!r.ok()) return false;
    decision_log_.push_back(d);
  }
  const std::uint64_t alarms = r.U64();
  if (!r.ok()) return false;
  alarm_log_.clear();
  for (std::uint64_t i = 0; i < alarms; ++i) {
    AlarmEvent a;
    a.tick = r.I64();
    a.tenant = r.U32();
    if (!r.ok()) return false;
    alarm_log_.push_back(a);
  }
  return r.ok() && r.exhausted();
}

void DetectionService::ResetVolatileState() {
  current_tick_ = -1;
  transport_watermark_ = 0;
  next_lsn_ = 1;
  queue_.clear();
  table_ = TenantTable(config_.pipeline, config_.max_tenants);
  acct_ = SvcAccounting{};
  decision_log_.clear();
  alarm_log_.clear();
}

bool DetectionService::Recover() {
  bool recovered = false;
  std::uint64_t last_lsn = 0;

  const std::string ckpt = store_->ReadCheckpoint();
  if (!ckpt.empty()) {
    std::string_view payload;
    const SnapshotStatus status = OpenSnapshot(
        ckpt, kCheckpointKind, config_.Fingerprint(), &payload);
    inc_.checkpoint_status = status;
    if (status == SnapshotStatus::kOk) {
      SnapshotReader r(payload);
      if (RestoreFromPayload(r, &last_lsn)) {
        recovered = true;
        inc_.recovered_from_checkpoint = true;
        next_lsn_ = last_lsn + 1;
      } else {
        // A sealed-but-inconsistent payload: refuse it loudly, start cold.
        inc_.checkpoint_status = SnapshotStatus::kCorrupt;
        ResetVolatileState();
        last_lsn = 0;
      }
    }
  }

  const std::string wal = store_->ReadWal();
  const WalScanResult scan = WalReader::Scan(wal);
  inc_.recovery_wal_valid_bytes = scan.valid_bytes;
  inc_.recovery_wal_stop = scan.stop;
  replaying_ = true;
  for (const WalRecord& record : scan.records) {
    if (record.lsn <= last_lsn) {
      // Pre-checkpoint leftovers: the crash hit between the checkpoint
      // write and the WAL truncation it pays for.
      ++inc_.recovery_skipped_records;
      continue;
    }
    if (record.kind == WalRecordKind::kEvent) {
      ApplyEvent(record);
    } else {
      ApplyTick(record);
    }
    next_lsn_ = record.lsn + 1;
    ++inc_.recovery_replayed_records;
    recovered = true;
  }
  replaying_ = false;
  // Everything surviving in the WAL — replayed, skipped, or torn — is
  // covered by the checkpoint Recover() ends with.
  wal_pending_bytes_ = wal.size();
  if (recovered) Checkpoint();
  return recovered;
}

}  // namespace sds::svc
