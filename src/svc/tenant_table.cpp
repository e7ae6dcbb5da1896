#include "svc/tenant_table.h"

#include "common/check.h"

namespace sds::svc {

TenantTable::TenantTable(const PipelineConfig& pipeline_config,
                         std::size_t capacity)
    : pipeline_config_(pipeline_config), capacity_(capacity) {
  SDS_CHECK(capacity_ > 0, "tenant table capacity must be positive");
}

void TenantTable::EvictLru() {
  SDS_CHECK(!lru_.empty(), "evicting from an empty table");
  const TenantId victim = lru_.back();
  lru_.pop_back();
  entries_.erase(victim);
  evicted_ever_.insert(victim);
  ++stats_.evictions;
}

TenantEntry& TenantTable::Touch(TenantId tenant) {
  auto it = entries_.find(tenant);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return *it->second.entry;
  }
  if (entries_.size() >= capacity_) EvictLru();
  lru_.push_front(tenant);
  Slot slot;
  slot.entry = std::make_unique<TenantEntry>(pipeline_config_);
  slot.lru_pos = lru_.begin();
  auto [pos, inserted] = entries_.emplace(tenant, std::move(slot));
  SDS_CHECK(inserted, "tenant already tabled");
  ++stats_.created;
  if (evicted_ever_.count(tenant) != 0) ++stats_.readmissions;
  return *pos->second.entry;
}

const TenantEntry* TenantTable::Find(TenantId tenant) const {
  auto it = entries_.find(tenant);
  return it == entries_.end() ? nullptr : it->second.entry.get();
}

TenantEntry* TenantTable::FindMutable(TenantId tenant) {
  auto it = entries_.find(tenant);
  return it == entries_.end() ? nullptr : it->second.entry.get();
}

std::vector<TenantId> TenantTable::RecencyOrder() const {
  return std::vector<TenantId>(lru_.begin(), lru_.end());
}

void TenantTable::SaveState(SnapshotWriter& w) const {
  w.U64(entries_.size());
  // Recency order, most recent first — restore re-Touches in reverse so the
  // rebuilt list is bit-identical.
  for (const TenantId tenant : lru_) {
    const auto& slot = entries_.at(tenant);
    w.U32(tenant);
    w.U32(slot.entry->offenses);
    w.I64(slot.entry->quarantined_until);
    w.I64(slot.entry->last_enqueued_tick);
    slot.entry->pipeline.SaveState(w);
  }
  w.U64(evicted_ever_.size());
  for (const TenantId tenant : evicted_ever_) w.U32(tenant);
  w.U64(stats_.created);
  w.U64(stats_.evictions);
  w.U64(stats_.readmissions);
}

bool TenantTable::RestoreState(SnapshotReader& r) {
  lru_.clear();
  entries_.clear();
  evicted_ever_.clear();
  stats_ = TenantTableStats{};

  const std::uint64_t n = r.U64();
  if (!r.ok() || n > capacity_) return false;
  // Saved most-recent-first; rebuild by appending at the BACK so the list
  // ends up in the same order without churning splices.
  for (std::uint64_t i = 0; i < n; ++i) {
    const TenantId tenant = r.U32();
    auto entry = std::make_unique<TenantEntry>(pipeline_config_);
    entry->offenses = r.U32();
    entry->quarantined_until = r.I64();
    entry->last_enqueued_tick = r.I64();
    if (!r.ok() || !entry->pipeline.RestoreState(r)) return false;
    lru_.push_back(tenant);
    Slot slot;
    slot.entry = std::move(entry);
    slot.lru_pos = std::prev(lru_.end());
    auto [pos, inserted] = entries_.emplace(tenant, std::move(slot));
    if (!inserted) return false;  // duplicate tenant = corrupt checkpoint
  }
  const std::uint64_t evicted = r.U64();
  if (!r.ok()) return false;
  // Stop at the first failed read: a corrupt count must not spin.
  for (std::uint64_t i = 0; i < evicted; ++i) {
    const TenantId tenant = r.U32();
    if (!r.ok()) return false;
    evicted_ever_.insert(tenant);
  }
  stats_.created = r.U64();
  stats_.evictions = r.U64();
  stats_.readmissions = r.U64();
  return r.ok();
}

}  // namespace sds::svc
