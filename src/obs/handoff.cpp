#include "obs/handoff.h"

namespace sds::obs {

std::string PackSdsHandoff(const detect::SdsDetector& detector,
                           Tick source_tick) {
  SnapshotWriter payload;
  payload.U64(static_cast<std::uint64_t>(source_tick));
  detector.SaveState(payload);
  return SealSnapshot(kSdsHandoffKind, detector.ConfigFingerprint(),
                      payload.data());
}

HandoffResult ApplySdsHandoff(std::string_view blob,
                              detect::SdsDetector* detector) {
  HandoffResult result;
  std::string_view payload;
  result.status = OpenSnapshot(blob, kSdsHandoffKind,
                               detector->ConfigFingerprint(), &payload);
  if (result.status != SnapshotStatus::kOk) return result;
  SnapshotReader reader(payload);
  result.source_tick = static_cast<Tick>(reader.U64());
  if (!reader.ok() || !detector->RestoreState(reader) ||
      !reader.exhausted()) {
    result.status = SnapshotStatus::kCorrupt;
    return result;
  }
  result.warm = true;
  return result;
}

}  // namespace sds::obs
