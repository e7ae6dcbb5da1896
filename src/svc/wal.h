// Checksummed write-ahead log for the streaming detection service.
//
// The WAL is a full OPERATION log, not a sample log: every event the feed
// offers gets exactly one record — admitted, coalesced, shed, or rejected —
// in transport-offset order, plus one record per tick advance. That choice
// is what makes crash recovery bit-identical: quarantine counters, shed
// accounting and coalesce merges are side effects of REJECTED events, so a
// log of admitted samples alone could never rebuild them. Replay re-APPLIES
// each record's recorded disposition; it never re-judges the admission
// ladder (whose verdicts can depend on volatile state the crash destroyed).
//
// The log is a run of common/snapshot.h frames, one per record:
//
//   u32 body_len | u64 fnv1a(body) | body
//
// where the body is the tagged format version (written and checked by the
// codec only) followed by the record's fields: U32 record kind, U64 LSN,
// kind fields. A checkpoint is an envelope around the same frame, so one
// version bump invalidates both halves of the durable state together.
//
// WalReader scans a raw byte string (possibly ending in a torn frame — the
// normal aftermath of a crash) and stops at the first frame that the codec
// refuses or whose fields do not form a record, reporting how many bytes
// were valid and why it stopped. A torn tail is EXPECTED, not an error:
// recovery keeps the valid prefix and relies on at-least-once redelivery
// for the rest.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/snapshot.h"
#include "common/types.h"
#include "svc/sample.h"

namespace sds::svc {

enum class WalRecordKind : std::uint32_t {
  // One offered event and the disposition the service chose for it. The
  // full sample rides along: coalesce replay needs the counter values, and
  // accounting replay needs the tenant.
  kEvent = 0,
  // The service advanced to `tick` and drained its queue into the tenant
  // pipelines. Replay re-runs the drain (deterministic given the queue and
  // tenant state the preceding records rebuilt).
  kTick = 1,
};

struct WalRecord {
  WalRecordKind kind = WalRecordKind::kEvent;
  std::uint64_t lsn = 0;
  // kEvent fields (sample.offset is the transport dedup key).
  SvcSample sample;
  std::uint32_t disposition = 0;  // svc::Disposition enum value
  // kTick field.
  Tick tick = 0;
};

// Names why a WAL scan stopped, in the log's own terms: kOk is
// "clean_end" (consumed every byte), kBadLength "torn_frame" (partial
// header or body at the tail), kCorrupt "bad_record" (fields malformed
// despite a good checksum); kBadChecksum and kBadVersion keep the codec's
// names.
const char* WalScanStopName(SnapshotStatus stop);

struct WalScanResult {
  std::vector<WalRecord> records;
  // Bytes of `bytes` covered by intact frames (recovery truncates here).
  std::uint64_t valid_bytes = 0;
  SnapshotStatus stop = SnapshotStatus::kOk;
};

// Encodes one record as a framed WAL entry ready for StableStore::AppendWal.
class WalWriter {
 public:
  static std::string EncodeFrame(const WalRecord& record);
};

// Decodes a WAL byte string, tolerating a torn tail.
class WalReader {
 public:
  static WalScanResult Scan(std::string_view bytes);
};

}  // namespace sds::svc
