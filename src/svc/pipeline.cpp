#include "svc/pipeline.h"

namespace sds::svc {

TenantPipeline::TenantPipeline(const PipelineConfig& config)
    : config_(config) {}

PipelineDecision TenantPipeline::OnSample(const pcm::PcmSample& sample) {
  ++samples_seen_;
  PipelineDecision decision;
  if (!analyzer_) {
    warmup_.push_back(sample);
    if (warmup_.size() >= config_.profile_len) {
      analyzer_.emplace(detect::BuildSdsProfile(warmup_, config_.det),
                        config_.det, detect::SdsMode::kCombined);
      warmup_.clear();
      warmup_.shrink_to_fit();
    }
    return decision;
  }
  analyzer_->Observe(sample);
  const bool active = analyzer_->active();
  decision.decided = true;
  decision.active = active;
  decision.alarm = active && !was_active_;
  decision.cleared = !active && was_active_;
  was_active_ = active;
  return decision;
}

void TenantPipeline::SaveState(SnapshotWriter& w) const {
  w.Bool(monitoring());
  w.Bool(was_active_);
  w.U64(samples_seen_);
  if (analyzer_) {
    detect::WriteSdsProfile(w, analyzer_->profile());
    analyzer_->SaveState(w);
    return;
  }
  w.U64(warmup_.size());
  for (const auto& s : warmup_) {
    w.I64(s.tick);
    w.U64(s.access_num);
    w.U64(s.miss_num);
  }
}

bool TenantPipeline::RestoreState(SnapshotReader& r) {
  const bool monitoring = r.Bool();
  was_active_ = r.Bool();
  samples_seen_ = r.U64();
  if (!r.ok()) return false;
  warmup_.clear();
  analyzer_.reset();
  if (monitoring) {
    detect::SdsProfile profile;
    if (!detect::ReadSdsProfile(r, &profile)) return false;
    analyzer_.emplace(profile, config_.det, detect::SdsMode::kCombined);
    return analyzer_->RestoreState(r);
  }
  const std::uint64_t n = r.U64();
  if (!r.ok() || n > config_.profile_len) return false;
  warmup_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    pcm::PcmSample s;
    s.tick = r.I64();
    s.access_num = r.U64();
    s.miss_num = r.U64();
    warmup_.push_back(s);
  }
  return r.ok();
}

}  // namespace sds::svc
