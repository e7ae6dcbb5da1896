#include "obs/snapshot.h"

#include "common/snapshot.h"

namespace sds::obs {

namespace {

constexpr std::string_view kMagic{"SDSSNAP\0", 8};
constexpr std::string_view kKindSds = "sds_detector";

}  // namespace

const char* SnapshotStatusName(SnapshotStatus status) {
  switch (status) {
    case SnapshotStatus::kOk:
      return "ok";
    case SnapshotStatus::kBadMagic:
      return "bad_magic";
    case SnapshotStatus::kBadVersion:
      return "bad_version";
    case SnapshotStatus::kBadKind:
      return "bad_kind";
    case SnapshotStatus::kBadFingerprint:
      return "bad_fingerprint";
    case SnapshotStatus::kBadLength:
      return "bad_length";
    case SnapshotStatus::kBadChecksum:
      return "bad_checksum";
    case SnapshotStatus::kCorrupt:
      return "corrupt";
  }
  return "?";
}

std::string SealSnapshot(std::string_view kind,
                         std::uint64_t config_fingerprint,
                         std::string_view payload) {
  std::string blob(kMagic);
  SnapshotWriter header;
  header.U32(kSnapshotVersion);
  header.Str(kind);
  header.U64(config_fingerprint);
  header.U64(Fnv1a(payload));
  header.U64(payload.size());
  blob += header.data();
  blob += payload;
  return blob;
}

SnapshotStatus OpenSnapshot(std::string_view blob, std::string_view kind,
                            std::uint64_t config_fingerprint,
                            std::string* payload) {
  if (blob.size() < kMagic.size() || blob.substr(0, kMagic.size()) != kMagic) {
    return SnapshotStatus::kBadMagic;
  }
  SnapshotReader header(blob.substr(kMagic.size()));
  const std::uint32_t version = header.U32();
  if (!header.ok()) return SnapshotStatus::kBadMagic;
  if (version != kSnapshotVersion) return SnapshotStatus::kBadVersion;
  const std::string saved_kind = header.Str();
  if (!header.ok()) return SnapshotStatus::kBadMagic;
  if (saved_kind != kind) return SnapshotStatus::kBadKind;
  const std::uint64_t fingerprint = header.U64();
  const std::uint64_t checksum = header.U64();
  const std::uint64_t length = header.U64();
  if (!header.ok()) return SnapshotStatus::kBadMagic;
  if (fingerprint != config_fingerprint) {
    return SnapshotStatus::kBadFingerprint;
  }
  // The payload is exactly what follows the header. The declared length must
  // match it byte-for-byte — an over- or under-declared length would let a
  // forged header choose which bytes the checksum covers (e.g. re-summing a
  // slice of itself), and a zero-length payload cannot be a field stream at
  // all. Both are rejected BEFORE any checksum math.
  const std::string_view body =
      blob.substr(kMagic.size() + header.consumed());
  if (length == 0 || length != body.size()) {
    return SnapshotStatus::kBadLength;
  }
  if (Fnv1a(body) != checksum) return SnapshotStatus::kBadChecksum;
  *payload = std::string(body);
  return SnapshotStatus::kOk;
}

std::string SnapshotSdsDetector(const detect::SdsDetector& detector) {
  SnapshotWriter payload;
  detector.SaveState(payload);
  return SealSnapshot(kKindSds, detector.ConfigFingerprint(), payload.data());
}

SnapshotStatus RestoreSdsDetector(std::string_view blob,
                                  detect::SdsDetector* detector) {
  std::string payload;
  const SnapshotStatus status =
      OpenSnapshot(blob, kKindSds, detector->ConfigFingerprint(), &payload);
  if (status != SnapshotStatus::kOk) return status;
  SnapshotReader reader(payload);
  if (!detector->RestoreState(reader) || !reader.exhausted()) {
    return SnapshotStatus::kCorrupt;
  }
  return SnapshotStatus::kOk;
}

}  // namespace sds::obs
