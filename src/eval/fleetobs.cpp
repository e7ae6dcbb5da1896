#include "eval/fleetobs.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <ostream>
#include <span>

#include "common/check.h"
#include "common/rng.h"
#include "eval/aggregate.h"

namespace sds::eval {

namespace {

// The four health metrics every (host, tenant) pair emits each tick. Ids
// are fixed by registration order; DefaultFleetSloRules names must match.
constexpr const char* kMetricNames[] = {
    "detect.latency_ticks",
    "detect.false_alarm",
    "mitigation.converge_ticks",
    "sampler.delivery_ratio",
};
constexpr std::size_t kMetricCount = 4;

// Detection-latency thresholds (ticks) swept for the precision/recall curve.
constexpr double kCurveThresholds[] = {300, 400, 500, 600, 700, 800};

double Noise01(std::uint64_t seed, std::uint32_t host, std::uint32_t tenant,
               std::size_t metric, Tick tick) {
  std::uint64_t h = seed;
  h = SplitMix64(h ^ host);
  h = SplitMix64(h ^ (static_cast<std::uint64_t>(tenant) << 20));
  h = SplitMix64(h ^ (static_cast<std::uint64_t>(metric) << 40));
  h = SplitMix64(h ^ static_cast<std::uint64_t>(tick));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool PairAttacked(std::uint64_t seed, std::uint32_t host, std::uint32_t tenant,
                  double fraction) {
  const std::uint64_t h =
      SplitMix64(SplitMix64(seed ^ 0xa77acced) ^ host ^
                 (static_cast<std::uint64_t>(tenant) << 24));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < fraction;
}

struct StreamModel {
  std::uint64_t seed;
  Tick attack_start;
  Tick attack_end;
  double attacked_fraction;

  bool Attacking(std::uint32_t host, std::uint32_t tenant, Tick tick) const {
    return tick >= attack_start && tick < attack_end &&
           PairAttacked(seed, host, tenant, attacked_fraction);
  }

  double Value(std::uint32_t host, std::uint32_t tenant, std::size_t metric,
               Tick tick) const {
    const double n = Noise01(seed, host, tenant, metric, tick);
    const bool attacking = Attacking(host, tenant, tick);
    switch (metric) {
      case 0:  // detect.latency_ticks
        return attacking ? 700.0 + 200.0 * n : 200.0 + 100.0 * n;
      case 1:  // detect.false_alarm (rare spurious alarms off-attack)
        return !attacking && n < 0.002 ? 1.0 : 0.0;
      case 2:  // mitigation.converge_ticks
        return attacking ? 350.0 + 200.0 * n : 150.0 + 50.0 * n;
      case 3:  // sampler.delivery_ratio
        return attacking ? 0.60 + 0.20 * n : 0.97 + 0.03 * n;
    }
    return 0.0;
  }
};

bool RowsIdentical(const obs::RollupRow& a, const obs::RollupRow& b) {
  return a.window == b.window && a.key == b.key && a.count == b.count &&
         a.sum == b.sum && a.min == b.min && a.max == b.max &&
         a.p50 == b.p50 && a.p95 == b.p95 && a.p99 == b.p99;
}

// Ingests the full synthetic stream into `rollup`, fanning shards out over
// `threads` workers; each worker regenerates the stream and keeps only the
// keys its shard owns. Returns the per-worker total sample count (the whole
// fleet's, not just admitted).
std::uint64_t IngestFleet(const FleetObsConfig& config,
                          const StreamModel& model,
                          const obs::MetricId (&metric_ids)[kMetricCount],
                          obs::FleetRollup* rollup) {
  const auto shard_worker = [&](int shard_index) {
    obs::ShardWriter& shard =
        rollup->shard(static_cast<std::uint32_t>(shard_index));
    obs::ObsSample s;
    for (Tick tick = 0; tick < config.ticks; ++tick) {
      s.tick = tick;
      for (std::uint32_t host = 0; host < config.hosts; ++host) {
        s.key.host = host;
        for (std::uint32_t tenant = 0; tenant < config.tenants_per_host;
             ++tenant) {
          s.key.tenant = tenant;
          for (std::size_t m = 0; m < kMetricCount; ++m) {
            s.key.metric = metric_ids[m];
            if (obs::ShardOf(s.key, config.shards) !=
                static_cast<std::uint32_t>(shard_index)) {
              continue;
            }
            s.value = model.Value(host, tenant, m, tick);
            shard.Ingest(s);
          }
        }
      }
    }
  };
  ParallelFor(static_cast<int>(config.shards), config.threads, shard_worker);
  rollup->BarrierMerge(config.ticks + config.window_ticks);
  return static_cast<std::uint64_t>(config.ticks) * config.hosts *
         config.tenants_per_host * kMetricCount;
}

}  // namespace

FleetObsResult RunFleetObsSweep(const FleetObsConfig& config,
                                std::ostream* rollup_out) {
  SDS_CHECK(config.hosts > 0 && config.tenants_per_host > 0,
            "fleet must be non-empty");
  SDS_CHECK(config.ticks > 0 && config.window_ticks > 0, "bad tick geometry");
  SDS_CHECK(config.shards > 0, "need at least one shard");

  StreamModel model;
  model.seed = config.seed;
  model.attack_start = config.ticks / 3;
  model.attack_end = 2 * config.ticks / 3;
  model.attacked_fraction = config.attacked_fraction;

  obs::RollupConfig rollup_config;
  rollup_config.window_ticks = config.window_ticks;
  rollup_config.shards = config.shards;
  rollup_config.max_series_per_shard = config.max_series_per_shard;
  obs::FleetRollup rollup(rollup_config);
  obs::MetricId metric_ids[kMetricCount];
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    metric_ids[m] = rollup.RegisterMetric(kMetricNames[m]);
  }

  FleetObsResult result;
  const auto ingest_start = std::chrono::steady_clock::now();
  result.samples = IngestFleet(config, model, metric_ids, &rollup);
  const auto ingest_end = std::chrono::steady_clock::now();
  result.ingest_wall_seconds =
      std::chrono::duration<double>(ingest_end - ingest_start).count();
  result.ingest_rate_per_sec =
      result.ingest_wall_seconds > 0.0
          ? static_cast<double>(result.samples) / result.ingest_wall_seconds
          : 0.0;
  result.rows = rollup.completed().size();
  result.rollup_memory_bytes = rollup.ApproxMemoryBytes();
  result.live_series = rollup.live_series();
  result.dropped_late = rollup.dropped_late();
  result.dropped_series = rollup.dropped_series();
  result.dropped_samples = rollup.dropped_samples();
  for (std::uint32_t host = 0; host < config.hosts; ++host) {
    for (std::uint32_t tenant = 0; tenant < config.tenants_per_host;
         ++tenant) {
      if (PairAttacked(config.seed, host, tenant, config.attacked_fraction)) {
        ++result.attacked_pairs;
      }
    }
  }

  // The determinism pin at bench scale: the same stream through ONE shard
  // must merge to the byte-same rollup rows.
  FleetObsConfig reference = config;
  reference.shards = 1;
  reference.threads = 1;
  obs::RollupConfig ref_config = rollup_config;
  ref_config.shards = 1;
  // One shard must admit what N shards admitted in aggregate.
  ref_config.max_series_per_shard = config.max_series_per_shard * config.shards;
  obs::FleetRollup ref_rollup(ref_config);
  obs::MetricId ref_ids[kMetricCount];
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    ref_ids[m] = ref_rollup.RegisterMetric(kMetricNames[m]);
  }
  IngestFleet(reference, model, ref_ids, &ref_rollup);
  result.sharded_matches_single_shard =
      std::equal(rollup.completed().begin(), rollup.completed().end(),
                 ref_rollup.completed().begin(), ref_rollup.completed().end(),
                 RowsIdentical);

  // SLO evaluation over the merged stream, window by window (empty windows
  // still advance the burn estimate).
  obs::SloEngine engine(obs::DefaultFleetSloRules(), &rollup);
  const std::vector<obs::RollupRow>& rows = rollup.completed();
  const std::int64_t last_window = config.ticks / config.window_ticks;
  std::size_t cursor = 0;
  for (std::int64_t window = 0; window <= last_window; ++window) {
    const std::size_t begin = cursor;
    while (cursor < rows.size() && rows[cursor].window == window) ++cursor;
    engine.OnWindow(window, std::span<const obs::RollupRow>(
                                rows.data() + begin, cursor - begin));
  }
  result.slo_alerts = engine.alerts().size();
  for (const obs::SloAlert& a : engine.alerts()) {
    if (a.level == obs::SloLevel::kPage) ++result.slo_pages;
    if (a.level == obs::SloLevel::kWarn) ++result.slo_warns;
  }

  // Alert precision/recall vs the ground truth, per (window, host, tenant)
  // cell: a cell is FLAGGED when its latency p95 breaches the threshold,
  // POSITIVE when the pair attacks for the majority of the window.
  for (const double threshold : kCurveThresholds) {
    ThresholdPoint point;
    point.threshold = threshold;
    for (const obs::RollupRow& row : rows) {
      if (row.key.metric != metric_ids[0]) continue;
      const bool flagged = row.p95 > threshold;
      const Tick mid = row.window * config.window_ticks +
                       config.window_ticks / 2;
      const bool positive = model.Attacking(row.key.host, row.key.tenant, mid);
      if (flagged && positive) {
        ++point.true_positives;
      } else if (flagged) {
        ++point.false_positives;
      } else if (positive) {
        ++point.false_negatives;
      } else {
        ++point.true_negatives;
      }
    }
    const std::uint64_t flagged_total =
        point.true_positives + point.false_positives;
    const std::uint64_t positive_total =
        point.true_positives + point.false_negatives;
    point.precision = flagged_total == 0
                          ? 1.0
                          : static_cast<double>(point.true_positives) /
                                static_cast<double>(flagged_total);
    point.recall = positive_total == 0
                       ? 1.0
                       : static_cast<double>(point.true_positives) /
                             static_cast<double>(positive_total);
    result.curve.push_back(point);
  }

  if (rollup_out) {
    rollup.WriteJsonl(*rollup_out);
    engine.WriteJsonl(*rollup_out);
  }
  return result;
}

void WriteFleetObsJson(const FleetObsConfig& config,
                       const FleetObsResult& result, std::ostream& os) {
  os << "{\"bench\":\"fleetobs\",\"hosts\":" << config.hosts
     << ",\"tenants_per_host\":" << config.tenants_per_host
     << ",\"ticks\":" << config.ticks
     << ",\"window_ticks\":" << config.window_ticks
     << ",\"shards\":" << config.shards << ",\"threads\":" << config.threads
     << ",\"seed\":" << config.seed
     << ",\"attacked_pairs\":" << result.attacked_pairs
     << ",\"samples\":" << result.samples << ",\"rows\":" << result.rows
     << ",\"rollup_memory_bytes\":" << result.rollup_memory_bytes
     << ",\"live_series\":" << result.live_series
     << ",\"dropped_late\":" << result.dropped_late
     << ",\"dropped_series\":" << result.dropped_series
     << ",\"dropped_samples\":" << result.dropped_samples
     << ",\"slo_alerts\":" << result.slo_alerts
     << ",\"slo_pages\":" << result.slo_pages
     << ",\"slo_warns\":" << result.slo_warns
     << ",\"sharded_matches_single_shard\":"
     << (result.sharded_matches_single_shard ? "true" : "false")
     << ",\"curve\":[";
  for (std::size_t i = 0; i < result.curve.size(); ++i) {
    const ThresholdPoint& p = result.curve[i];
    if (i) os << ",";
    os << "{\"threshold\":" << p.threshold << ",\"tp\":" << p.true_positives
       << ",\"fp\":" << p.false_positives << ",\"fn\":" << p.false_negatives
       << ",\"tn\":" << p.true_negatives << ",\"precision\":" << p.precision
       << ",\"recall\":" << p.recall << "}";
  }
  os << "]}";
}

}  // namespace sds::eval
