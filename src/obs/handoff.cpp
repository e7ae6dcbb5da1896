#include "obs/handoff.h"

#include "common/snapshot.h"

namespace sds::obs {

// Both handoff envelope layers are sealed by SealSnapshot and carry the
// version pin; keep the reference here so a kSnapshotVersion bump forces a
// look at the handoff payload layout too.
static_assert(kSnapshotVersion >= 1);

// Outer envelope payload: u64 source tick, then the inner (itself sealed)
// detector snapshot — so the config fingerprint is validated at both
// layers and the inner blob remains a plain obs/snapshot.h snapshot. Both
// envelopes carry kSnapshotVersion; a release skew rejects at the outer
// layer already.
std::string PackSdsHandoff(const detect::SdsDetector& detector,
                           Tick source_tick) {
  SnapshotWriter payload;
  payload.U64(static_cast<std::uint64_t>(source_tick));
  payload.Str(SnapshotSdsDetector(detector));
  return SealSnapshot(kSdsHandoffKind, detector.ConfigFingerprint(),
                      payload.data());
}

HandoffResult ApplySdsHandoff(std::string_view blob,
                              detect::SdsDetector* detector) {
  HandoffResult result;
  std::string payload;
  result.status = OpenSnapshot(blob, kSdsHandoffKind,
                               detector->ConfigFingerprint(), &payload);
  if (result.status != SnapshotStatus::kOk) return result;
  SnapshotReader reader(payload);
  const auto source_tick = static_cast<Tick>(reader.U64());
  const std::string inner = reader.Str();
  if (!reader.ok() || !reader.exhausted()) {
    result.status = SnapshotStatus::kCorrupt;
    return result;
  }
  result.source_tick = source_tick;
  result.status = RestoreSdsDetector(inner, detector);
  result.warm = result.status == SnapshotStatus::kOk;
  return result;
}

}  // namespace sds::obs
