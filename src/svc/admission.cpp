#include "svc/admission.h"

#include <algorithm>

namespace sds::svc {

const char* DispositionName(Disposition d) {
  switch (d) {
    case Disposition::kAdmit:
      return "admit";
    case Disposition::kCoalesce:
      return "coalesce";
    case Disposition::kShed:
      return "shed";
    case Disposition::kRejectMalformed:
      return "reject_malformed";
    case Disposition::kRejectInsane:
      return "reject_insane";
    case Disposition::kRejectFuture:
      return "reject_future";
    case Disposition::kRejectStale:
      return "reject_stale";
    case Disposition::kRejectQuarantined:
      return "reject_quarantined";
    case Disposition::kDispositionCount:
      break;
  }
  return "?";
}

bool DispositionIsOffense(Disposition d) {
  return d == Disposition::kRejectInsane || d == Disposition::kRejectFuture;
}

Disposition JudgeSample(const SvcSample& sample, const AdmissionConfig& config,
                        Tick current_tick, const TenantEntry* entry,
                        std::size_t queue_depth, bool queue_has_tenant) {
  // Rung 2: quarantine sentence.
  if (entry != nullptr && entry->quarantined_until != kInvalidTick &&
      current_tick < entry->quarantined_until) {
    return Disposition::kRejectQuarantined;
  }
  // Rung 3: physically impossible counters. The delta spans the gap since
  // the tenant's newest enqueued tick (first contact spans one tick), the
  // same scaling detect/degrade applies after sampler gaps.
  pcm::PcmSample pcm_sample;
  pcm_sample.tick = sample.tick;
  pcm_sample.access_num = sample.access_num;
  pcm_sample.miss_num = sample.miss_num;
  Tick span = 1;
  if (entry != nullptr && entry->last_enqueued_tick != kInvalidTick &&
      sample.tick > entry->last_enqueued_tick) {
    span = sample.tick - entry->last_enqueued_tick;
  }
  if (!detect::SampleIsSane(pcm_sample, span)) {
    return Disposition::kRejectInsane;
  }
  // Rung 4: future-timestamped.
  if (sample.tick > current_tick + config.max_future_ticks) {
    return Disposition::kRejectFuture;
  }
  // Rung 5: stale / duplicate.
  if (entry != nullptr && entry->last_enqueued_tick != kInvalidTick &&
      sample.tick <= entry->last_enqueued_tick) {
    return Disposition::kRejectStale;
  }
  // Rung 6: backpressure tiers.
  if (queue_depth >= config.shed_depth) return Disposition::kShed;
  if (queue_depth >= config.coalesce_depth && queue_has_tenant) {
    return Disposition::kCoalesce;
  }
  return Disposition::kAdmit;
}

bool RecordOffense(TenantEntry& entry, const AdmissionConfig& config,
                   Tick current_tick) {
  ++entry.offenses;
  if (entry.offenses < config.quarantine_offense_threshold) return false;
  entry.offenses = 0;
  entry.quarantined_until = current_tick + config.quarantine_ticks;
  return true;
}

}  // namespace sds::svc
