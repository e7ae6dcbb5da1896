#include "detect/forensics.h"

#include <algorithm>
#include <ostream>

#include "common/check.h"
#include "telemetry/telemetry.h"

namespace sds::detect {

namespace tel = sds::telemetry;

namespace {
// Per-resource blend weights. Evictions and imposed stall delay are direct
// harm to the target; raw occupancy is circumstantial (a loud neighbor is
// not necessarily the attacker) and weighs half.
constexpr double kEvictionWeight = 1.0;
constexpr double kBusDelayWeight = 1.0;
constexpr double kOccupancyWeight = 0.5;
}  // namespace

ForensicsEngine::ForensicsEngine(vm::Hypervisor& hypervisor, OwnerId target,
                                 const ForensicsConfig& config)
    : hypervisor_(hypervisor),
      target_(target),
      config_(config),
      sampler_(hypervisor, target),
      window_(config.window_spans) {
  SDS_CHECK(config.window_spans > 0, "forensics window must be non-empty");
}

void ForensicsEngine::OnTick() { window_.Push(sampler_.Sample()); }

const ForensicReport& ForensicsEngine::OnAlarm(Tick alarm_tick,
                                               OwnerId kstest_culprit) {
  ForensicReport report;
  report.alarm_tick = alarm_tick;
  report.target = target_;
  report.kstest_culprit = kstest_culprit;
  if (!window_.empty()) {
    report.window_start = window_.oldest().tick - (window_.oldest().span - 1);
    report.window_end = window_.newest().tick;
  }

  // Window sums per candidate (everyone but the target and the owner-0
  // hypervisor sentinel).
  const OwnerId max_owners =
      hypervisor_.machine().attribution()->max_owners();
  std::vector<SuspectEvidence> sums(max_owners);
  for (OwnerId o = 0; o < max_owners; ++o) sums[o].vm = o;
  for (std::size_t i = 0; i < window_.size(); ++i) {
    const pcm::AttributionSpan& span = window_[i];
    for (const pcm::AttributionSlice& slice : span.slices) {
      SuspectEvidence& s = sums[slice.owner];
      s.evictions += slice.evictions_on_target;
      s.bus_delay += slice.bus_delay_on_target;
      s.occupancy += slice.occupancy_slots;
    }
  }

  std::uint64_t total_evictions = 0;
  std::uint64_t total_bus_delay = 0;
  std::uint64_t total_occupancy = 0;
  for (OwnerId o = 1; o < max_owners; ++o) {
    if (o == target_) continue;
    total_evictions += sums[o].evictions;
    total_bus_delay += sums[o].bus_delay;
    total_occupancy += sums[o].occupancy;
  }

  // Blend shares over the resources that produced evidence at all; a silent
  // resource neither convicts nor dilutes.
  double weight_total = 0.0;
  if (total_evictions > 0) weight_total += kEvictionWeight;
  if (total_bus_delay > 0) weight_total += kBusDelayWeight;
  if (total_occupancy > 0) weight_total += kOccupancyWeight;
  for (OwnerId o = 1; o < max_owners; ++o) {
    if (o == target_) continue;
    SuspectEvidence& s = sums[o];
    if (s.evictions == 0 && s.bus_delay == 0 && s.occupancy == 0) continue;
    if (total_evictions > 0) {
      s.eviction_share = static_cast<double>(s.evictions) /
                         static_cast<double>(total_evictions);
    }
    if (total_bus_delay > 0) {
      s.bus_delay_share = static_cast<double>(s.bus_delay) /
                          static_cast<double>(total_bus_delay);
    }
    if (total_occupancy > 0) {
      s.occupancy_share = static_cast<double>(s.occupancy) /
                          static_cast<double>(total_occupancy);
    }
    if (weight_total > 0.0) {
      s.score = (kEvictionWeight * s.eviction_share +
                 kBusDelayWeight * s.bus_delay_share +
                 kOccupancyWeight * s.occupancy_share) /
                weight_total;
    }
    report.suspects.push_back(s);
  }
  std::sort(report.suspects.begin(), report.suspects.end(),
            [](const SuspectEvidence& a, const SuspectEvidence& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.vm < b.vm;
            });

  if (!report.suspects.empty() &&
      report.suspects.front().score >= kForensicMinScore) {
    report.attributed = true;
    report.prime_suspect = report.suspects.front().vm;
    // Walk the window oldest-first for the suspect's first direct harm.
    for (std::size_t i = 0; i < window_.size(); ++i) {
      const pcm::AttributionSlice& slice =
          window_[i].slices[report.prime_suspect];
      if (slice.evictions_on_target > 0 || slice.bus_delay_on_target > 0) {
        report.first_evidence_tick =
            window_[i].tick - (window_[i].span - 1);
        break;
      }
    }
    if (report.first_evidence_tick != kInvalidTick &&
        alarm_tick >= report.first_evidence_tick) {
      report.evidence_lead_ticks = alarm_tick - report.first_evidence_tick;
    }
    report.kstest_agrees =
        kstest_culprit != 0 && kstest_culprit == report.prime_suspect;
  }

  if (tel::Telemetry* t = hypervisor_.telemetry()) {
    const double prime_score =
        report.suspects.empty() ? 0.0 : report.suspects.front().score;
    tel::AuditRecord r;
    r.tick = alarm_tick;
    r.detector = "Forensics";
    r.check = "forensics";
    r.channel = "AttributionLedger";
    r.value = prime_score;
    r.lower = kForensicMinScore;
    r.upper = 1.0;
    r.margin = prime_score - kForensicMinScore;
    r.violation = report.attributed;
    r.consecutive = static_cast<int>(report.suspects.size());
    r.alarm = report.attributed;
    t->audit().Append(r);
    if (t->tracer().enabled(tel::Layer::kDetect)) {
      t->tracer().Emit(
          tel::MakeEvent(alarm_tick, tel::Layer::kDetect, "forensic_report",
                         target_)
              .Num("prime_suspect", report.prime_suspect)
              .Num("score", prime_score)
              .Num("suspects", static_cast<double>(report.suspects.size()))
              .Num("kstest_culprit", kstest_culprit)
              .Num("kstest_agrees", report.kstest_agrees ? 1.0 : 0.0));
    }
  }

  reports_.push_back(std::move(report));
  return reports_.back();
}

void WriteForensicReportJson(std::ostream& os, const ForensicReport& r) {
  os << "{\"type\":\"forensic_report\",\"alarm_tick\":" << r.alarm_tick
     << ",\"target\":" << r.target
     << ",\"attributed\":" << (r.attributed ? "true" : "false")
     << ",\"prime_suspect\":" << r.prime_suspect
     << ",\"kstest_culprit\":" << r.kstest_culprit
     << ",\"kstest_agrees\":" << (r.kstest_agrees ? "true" : "false")
     << ",\"window_start\":" << r.window_start
     << ",\"window_end\":" << r.window_end << ",\"first_evidence_tick\":";
  if (r.first_evidence_tick == kInvalidTick) {
    os << "null";
  } else {
    os << r.first_evidence_tick;
  }
  os << ",\"evidence_lead_ticks\":" << r.evidence_lead_ticks
     << ",\"suspects\":[";
  for (std::size_t i = 0; i < r.suspects.size(); ++i) {
    const SuspectEvidence& s = r.suspects[i];
    if (i > 0) os << ',';
    os << "{\"vm\":" << s.vm << ",\"score\":" << s.score
       << ",\"evictions\":" << s.evictions << ",\"bus_delay\":" << s.bus_delay
       << ",\"occupancy\":" << s.occupancy << '}';
  }
  os << "]}";
}

void WriteForensicReportText(std::ostream& os, const ForensicReport& r) {
  os << "forensic report @ tick " << r.alarm_tick << " (target VM "
     << r.target << ", evidence ticks " << r.window_start << ".."
     << r.window_end << ")\n";
  if (r.attributed) {
    os << "  prime suspect: VM " << r.prime_suspect << " (score "
       << r.suspects.front().score << ", evidence since tick "
       << r.first_evidence_tick << ", lead " << r.evidence_lead_ticks
       << " ticks)\n";
  } else {
    os << "  prime suspect: unattributed (no candidate cleared min_score)\n";
  }
  if (r.kstest_culprit != 0) {
    os << "  kstest culprit: VM " << r.kstest_culprit << " ("
       << (r.kstest_agrees ? "agrees" : "disagrees") << ")\n";
  }
  for (const SuspectEvidence& s : r.suspects) {
    os << "  VM " << s.vm << ": score " << s.score << "  evictions "
       << s.evictions << " (share " << s.eviction_share << ")  bus_delay "
       << s.bus_delay << " (share " << s.bus_delay_share << ")  occupancy "
       << s.occupancy << " (share " << s.occupancy_share << ")\n";
  }
}

}  // namespace sds::detect
