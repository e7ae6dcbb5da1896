#include "svc/wal.h"

namespace sds::svc {

const char* WalScanStopName(SnapshotStatus stop) {
  switch (stop) {
    case SnapshotStatus::kOk:
      return "clean_end";
    case SnapshotStatus::kBadLength:
      return "torn_frame";
    case SnapshotStatus::kCorrupt:
      return "bad_record";
    default:
      return SnapshotStatusName(stop);
  }
}

std::string WalWriter::EncodeFrame(const WalRecord& record) {
  SnapshotWriter fields;
  fields.U32(static_cast<std::uint32_t>(record.kind));
  fields.U64(record.lsn);
  switch (record.kind) {
    case WalRecordKind::kEvent:
      fields.U64(record.sample.offset);
      fields.U32(record.sample.tenant);
      fields.I64(record.sample.tick);
      fields.U64(record.sample.access_num);
      fields.U64(record.sample.miss_num);
      fields.U32(record.disposition);
      break;
    case WalRecordKind::kTick:
      fields.I64(record.tick);
      break;
  }
  return SealFrame(fields.data());
}

WalScanResult WalReader::Scan(std::string_view bytes) {
  WalScanResult result;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const Frame frame = OpenFrame(bytes.substr(pos));
    if (frame.status != SnapshotStatus::kOk) {
      result.stop = frame.status;
      break;
    }
    SnapshotReader reader(frame.fields);
    WalRecord record;
    const std::uint32_t kind = reader.U32();
    record.lsn = reader.U64();
    if (kind == static_cast<std::uint32_t>(WalRecordKind::kEvent)) {
      record.kind = WalRecordKind::kEvent;
      record.sample.offset = reader.U64();
      record.sample.tenant = reader.U32();
      record.sample.tick = reader.I64();
      record.sample.access_num = reader.U64();
      record.sample.miss_num = reader.U64();
      record.disposition = reader.U32();
    } else if (kind == static_cast<std::uint32_t>(WalRecordKind::kTick)) {
      record.kind = WalRecordKind::kTick;
      record.tick = reader.I64();
    } else {
      result.stop = SnapshotStatus::kCorrupt;
      break;
    }
    if (!reader.ok() || !reader.exhausted()) {
      result.stop = SnapshotStatus::kCorrupt;
      break;
    }
    result.records.push_back(record);
    pos += frame.size;
    result.valid_bytes = pos;
  }
  return result;
}

}  // namespace sds::svc
