// Versioned detector-state snapshots (DESIGN.md §13): the envelope layer
// over the common/snapshot.h field stream.
//
// A sealed snapshot is:
//
//   magic "SDSSNAP\0" | u32 kSnapshotVersion | kind string | u64 config
//   fingerprint | u64 FNV-1a payload checksum | u64 payload length | payload
//
// OpenSnapshot verifies each layer in order and reports WHICH failed, so a
// monitoring service restart can distinguish "snapshot from an old release"
// (re-warm from scratch, expected) from "snapshot corrupt on disk" (alert).
// The config fingerprint binds a snapshot to the exact detector
// configuration that produced it — restoring analyzer windows into a
// detector with different W/dW/alpha/thresholds would silently produce
// garbage decisions, so it is refused up front.
//
// CONTRACT: snapshots are taken and restored at tick boundaries, into the
// SAME still-running simulated world. The PCM sampler is never serialized —
// the restored detector re-baselines a fresh sampler whose cumulative
// counters yield identical deltas from that boundary on. The round-trip
// guarantee (identical alarm sequence vs an un-restarted run) is pinned by
// tests/obs/snapshot_test.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "detect/sds_detector.h"

namespace sds::obs {

// Bump when the envelope or any SaveState field layout changes; OpenSnapshot
// rejects every other version (no migration — a stale snapshot re-warms).
inline constexpr std::uint32_t kSnapshotVersion = 2;

enum class SnapshotStatus : std::uint8_t {
  kOk,
  kBadMagic,        // not a snapshot at all
  kBadVersion,      // sealed by a different release
  kBadKind,         // snapshot of a different detector type
  kBadFingerprint,  // detector configured differently than at save time
  kBadLength,       // declared payload length is zero or does not match the
                    // bytes actually present (checked BEFORE the checksum: a
                    // forged length must never choose which bytes get summed)
  kBadChecksum,     // payload bytes corrupted
  kCorrupt,         // field stream inconsistent with the detector's state
};

const char* SnapshotStatusName(SnapshotStatus status);

// Seals a payload produced by a detector's SaveState.
std::string SealSnapshot(std::string_view kind,
                         std::uint64_t config_fingerprint,
                         std::string_view payload);

// Opens an envelope: on kOk, *payload holds the field stream.
SnapshotStatus OpenSnapshot(std::string_view blob, std::string_view kind,
                            std::uint64_t config_fingerprint,
                            std::string* payload);

// SdsDetector wrappers: seal its SaveState under its ConfigFingerprint, and
// restore only from a blob that opens and whose field stream the detector
// consumes exactly.
std::string SnapshotSdsDetector(const detect::SdsDetector& detector);
SnapshotStatus RestoreSdsDetector(std::string_view blob,
                                  detect::SdsDetector* detector);

}  // namespace sds::obs
