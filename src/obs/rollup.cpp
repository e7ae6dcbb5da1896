#include "obs/rollup.h"

#include <algorithm>
#include <ostream>
#include <string_view>

#include "common/check.h"
#include "common/snapshot.h"

namespace sds::obs {

void WindowStats::Add(double v) {
  if (count == 0) {
    min = v;
    max = v;
  } else {
    if (v < min) min = v;
    if (v > max) max = v;
  }
  sum += v;
  ++count;
  sketch.Add(v);
}

std::uint32_t ShardOf(const SeriesKey& key, std::uint32_t shard_count) {
  // FNV-1a over the three key fields, each little-endian; any deterministic
  // hash works, the only requirement is that every sample of one key agrees.
  const std::uint32_t fields[] = {key.host, key.tenant, key.metric};
  char bytes[sizeof fields];
  for (std::size_t i = 0; i < sizeof bytes; ++i) {
    bytes[i] = static_cast<char>((fields[i / 4] >> (8 * (i % 4))) & 0xffU);
  }
  return static_cast<std::uint32_t>(
      Fnv1a(std::string_view(bytes, sizeof bytes)) % shard_count);
}

ShardWriter::ShardWriter(const RollupConfig& config, std::uint32_t shard_index)
    : config_(config), shard_index_(shard_index) {
  SDS_CHECK(config.window_ticks > 0, "rollup window must be positive");
  SDS_CHECK(config.max_series_per_shard > 0, "series ceiling must be positive");
}

void ShardWriter::Seal(const SeriesKey& key, const SeriesState& state) {
  if (state.stats.count == 0) return;
  RollupRow row;
  row.window = state.window;
  row.key = key;
  row.count = state.stats.count;
  row.sum = state.stats.sum;
  row.min = state.stats.min;
  row.max = state.stats.max;
  row.p50 = state.stats.sketch.Quantile(0.50);
  row.p95 = state.stats.sketch.Quantile(0.95);
  row.p99 = state.stats.sketch.Quantile(0.99);
  pending_.push_back(row);
}

void ShardWriter::Ingest(const ObsSample& sample) {
  ++ingested_;
  const std::int64_t window = sample.tick / config_.window_ticks;
  if (window < sealed_before_) {
    // The barrier already merged this window; admitting the sample would
    // silently change history.
    ++dropped_late_;
    return;
  }
  auto it = series_.find(sample.key);
  if (it == series_.end()) {
    if (series_.size() >= config_.max_series_per_shard) {
      // Fixed-memory ceiling: never grow past it. The drop is accounted so
      // truncation is loud (rollup_stats line, tools/inspect, SLO rules).
      // dropped_series_ counts DISTINCT locked-out keys; the tracking set
      // is itself capped at the ceiling, after which only the per-sample
      // counter keeps growing.
      ++dropped_samples_;
      if (rejected_keys_.size() < config_.max_series_per_shard &&
          rejected_keys_.insert(sample.key).second) {
        ++dropped_series_;
      }
      return;
    }
    it = series_.emplace(sample.key, SeriesState{}).first;
    it->second.window = window;
  }
  SeriesState& state = it->second;
  if (window != state.window) {
    if (window < state.window) {
      // Out-of-order within one series: the window already rolled past.
      ++dropped_late_;
      return;
    }
    // Roll-over: seal the completed window in place so no sample is ever
    // lost between barriers, then reuse the slot (and its sketch's fixed
    // memory) for the new window.
    Seal(it->first, state);
    state.window = window;
    state.stats = WindowStats{};
  }
  state.stats.Add(sample.value);
}

void ShardWriter::Drain(std::int64_t window, std::vector<RollupRow>* out) {
  // Seal live windows strictly before the barrier.
  for (auto& [key, state] : series_) {
    if (state.window < window) {
      Seal(key, state);
      state.window = window;
      state.stats = WindowStats{};
    }
  }
  // Emit sealed rows before the barrier; rows a roll-over sealed AHEAD of
  // the barrier stay pending until their window closes.
  std::vector<RollupRow> later;
  for (RollupRow& row : pending_) {
    if (row.window < window) {
      out->push_back(row);
    } else {
      later.push_back(row);
    }
  }
  pending_ = std::move(later);
  sealed_before_ = std::max(sealed_before_, window);
}

std::size_t ShardWriter::ApproxMemoryBytes() const {
  return series_.size() * (sizeof(SeriesKey) + sizeof(SeriesState)) +
         rejected_keys_.size() * sizeof(SeriesKey) +
         pending_.size() * sizeof(RollupRow);
}

FleetRollup::FleetRollup(const RollupConfig& config) : config_(config) {
  SDS_CHECK(config.shards > 0, "need at least one shard");
  shards_.reserve(config.shards);
  for (std::uint32_t i = 0; i < config.shards; ++i) {
    shards_.emplace_back(config, i);
  }
}

MetricId FleetRollup::RegisterMetric(const std::string& name) {
  const auto it = metric_index_.find(name);
  if (it != metric_index_.end()) return it->second;
  const auto id = static_cast<MetricId>(metric_names_.size());
  metric_names_.push_back(name);
  metric_index_.emplace(name, id);
  return id;
}

void FleetRollup::Ingest(const ObsSample& sample) {
  shards_[ShardOf(sample.key, config_.shards)].Ingest(sample);
}

std::size_t FleetRollup::BarrierMerge(Tick up_to_tick) {
  const std::int64_t window = up_to_tick / config_.window_ticks;
  std::vector<RollupRow> sealed;
  for (ShardWriter& shard : shards_) shard.Drain(window, &sealed);
  // Shards own disjoint key sets, so ordering by (window, key) produces the
  // same stream at any shard count (the bit-identical pin).
  std::sort(sealed.begin(), sealed.end(),
            [](const RollupRow& a, const RollupRow& b) {
              if (a.window != b.window) return a.window < b.window;
              return a.key < b.key;
            });
  completed_.insert(completed_.end(), sealed.begin(), sealed.end());
  return sealed.size();
}

std::uint64_t FleetRollup::ingested() const {
  std::uint64_t total = 0;
  for (const ShardWriter& s : shards_) total += s.ingested();
  return total;
}

std::uint64_t FleetRollup::dropped_late() const {
  std::uint64_t total = 0;
  for (const ShardWriter& s : shards_) total += s.dropped_late();
  return total;
}

std::uint64_t FleetRollup::dropped_series() const {
  std::uint64_t total = 0;
  for (const ShardWriter& s : shards_) total += s.dropped_series();
  return total;
}

std::uint64_t FleetRollup::dropped_samples() const {
  std::uint64_t total = 0;
  for (const ShardWriter& s : shards_) total += s.dropped_samples();
  return total;
}

std::size_t FleetRollup::live_series() const {
  std::size_t total = 0;
  for (const ShardWriter& s : shards_) total += s.live_series();
  return total;
}

std::size_t FleetRollup::ApproxMemoryBytes() const {
  std::size_t total = 0;
  for (const ShardWriter& s : shards_) total += s.ApproxMemoryBytes();
  return total;
}

void FleetRollup::WriteJsonl(std::ostream& os) const {
  for (const RollupRow& r : completed_) {
    os << "{\"type\":\"rollup\",\"window\":" << r.window
       << ",\"host\":" << r.key.host << ",\"tenant\":" << r.key.tenant
       << ",\"metric\":\"" << metric_names_[r.key.metric] << "\""
       << ",\"count\":" << r.count << ",\"sum\":" << r.sum
       << ",\"min\":" << r.min << ",\"max\":" << r.max << ",\"p50\":" << r.p50
       << ",\"p95\":" << r.p95 << ",\"p99\":" << r.p99 << "}\n";
  }
  os << "{\"type\":\"rollup_stats\",\"shards\":" << config_.shards
     << ",\"window_ticks\":" << config_.window_ticks
     << ",\"ingested\":" << ingested() << ",\"rows\":" << completed_.size()
     << ",\"live_series\":" << live_series()
     << ",\"dropped_late\":" << dropped_late()
     << ",\"dropped_series\":" << dropped_series()
     << ",\"dropped_samples\":" << dropped_samples()
     << ",\"memory_bytes\":" << ApproxMemoryBytes() << "}\n";
}

}  // namespace sds::obs
