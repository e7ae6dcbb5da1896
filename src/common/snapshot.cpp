#include "common/snapshot.h"

#include "common/check.h"

namespace sds {
namespace {

// One tag byte per field so a reader that drifts out of sync (truncation,
// flipped bytes, a layout the version missed) fails at the next field
// instead of silently reinterpreting garbage.
constexpr char kTagU64 = 'U';
constexpr char kTagI64 = 'I';
constexpr char kTagU32 = 'u';
constexpr char kTagF64 = 'F';
constexpr char kTagBool = 'B';
constexpr char kTagStr = 'S';
constexpr char kTagVecF64 = 'V';

// Snapshots must not balloon on corrupt length prefixes.
constexpr std::uint64_t kMaxLength = 1ull << 28;

constexpr std::string_view kMagic{"SDSSNAP\0", 8};

// Frame header: u32 body length | u64 fnv1a(body).
constexpr std::size_t kFrameHeaderBytes = 4 + 8;

void AppendLe(std::string* out, std::uint64_t v, int bytes) {
  char buf[8];
  for (int i = 0; i < bytes; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out->append(buf, static_cast<std::size_t>(bytes));
}

// Caller guarantees `bytes` bytes are present at `pos`.
std::uint64_t ReadLe(std::string_view data, std::size_t pos, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(
             data[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

}  // namespace

void SnapshotWriter::U64(std::uint64_t v) {
  data_.push_back(kTagU64);
  AppendLe(&data_, v, 8);
}

void SnapshotWriter::I64(std::int64_t v) {
  data_.push_back(kTagI64);
  AppendLe(&data_, static_cast<std::uint64_t>(v), 8);
}

void SnapshotWriter::U32(std::uint32_t v) {
  data_.push_back(kTagU32);
  AppendLe(&data_, v, 8);
}

void SnapshotWriter::F64(double v) {
  data_.push_back(kTagF64);
  AppendLe(&data_, std::bit_cast<std::uint64_t>(v), 8);
}

void SnapshotWriter::Bool(bool v) {
  data_.push_back(kTagBool);
  data_.push_back(v ? '\1' : '\0');
}

void SnapshotWriter::Str(std::string_view v) {
  data_.push_back(kTagStr);
  AppendLe(&data_, v.size(), 8);
  data_.append(v.data(), v.size());
}

void SnapshotWriter::VecF64(const std::vector<double>& v) {
  data_.push_back(kTagVecF64);
  AppendLe(&data_, v.size(), 8);
  for (double d : v) {
    AppendLe(&data_, std::bit_cast<std::uint64_t>(d), 8);
  }
}

bool SnapshotReader::Take(char expected_tag) {
  if (!ok_ || pos_ >= data_.size() || data_[pos_] != expected_tag) {
    ok_ = false;
    return false;
  }
  ++pos_;
  return true;
}

std::uint64_t SnapshotReader::Raw64() {
  if (!ok_ || pos_ + 8 > data_.size()) {
    ok_ = false;
    return 0;
  }
  const std::uint64_t v = ReadLe(data_, pos_, 8);
  pos_ += 8;
  return v;
}

std::uint64_t SnapshotReader::U64() {
  if (!Take(kTagU64)) return 0;
  return Raw64();
}

std::int64_t SnapshotReader::I64() {
  if (!Take(kTagI64)) return 0;
  return static_cast<std::int64_t>(Raw64());
}

std::uint32_t SnapshotReader::U32() {
  if (!Take(kTagU32)) return 0;
  const std::uint64_t v = Raw64();
  if (v > 0xffffffffull) {
    ok_ = false;
    return 0;
  }
  return static_cast<std::uint32_t>(v);
}

double SnapshotReader::F64() {
  if (!Take(kTagF64)) return 0.0;
  return std::bit_cast<double>(Raw64());
}

bool SnapshotReader::Bool() {
  if (!Take(kTagBool)) return false;
  if (pos_ >= data_.size()) {
    ok_ = false;
    return false;
  }
  const char c = data_[pos_++];
  if (c != '\0' && c != '\1') {
    ok_ = false;
    return false;
  }
  return c == '\1';
}

std::string SnapshotReader::Str() {
  if (!Take(kTagStr)) return "";
  const std::uint64_t n = Raw64();
  if (!ok_ || n > kMaxLength || pos_ + n > data_.size()) {
    ok_ = false;
    return "";
  }
  std::string out(data_.substr(pos_, n));
  pos_ += n;
  return out;
}

std::vector<double> SnapshotReader::VecF64() {
  if (!Take(kTagVecF64)) return {};
  const std::uint64_t n = Raw64();
  if (!ok_ || n > kMaxLength / 8 || pos_ + 8 * n > data_.size()) {
    ok_ = false;
    return {};
  }
  std::vector<double> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(std::bit_cast<double>(Raw64()));
  }
  return out;
}

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

std::string SealFrame(std::string_view fields, std::uint32_t version) {
  SnapshotWriter head;
  head.U32(version);
  const std::size_t body_size = head.data().size() + fields.size();
  SDS_CHECK(body_size <= 0xffffffffull, "frame body exceeds the u32 length");
  std::string frame;
  frame.reserve(kFrameHeaderBytes + body_size);
  AppendLe(&frame, body_size, 4);
  AppendLe(&frame, Fnv1a(fields, Fnv1a(head.data())), 8);
  frame += head.data();
  frame += fields;
  return frame;
}

Frame OpenFrame(std::string_view bytes) {
  Frame frame;
  if (bytes.size() < kFrameHeaderBytes ||
      bytes.size() - kFrameHeaderBytes < ReadLe(bytes, 0, 4)) {
    frame.status = SnapshotStatus::kBadLength;
    return frame;
  }
  const std::string_view body = bytes.substr(
      kFrameHeaderBytes, static_cast<std::size_t>(ReadLe(bytes, 0, 4)));
  frame.size = kFrameHeaderBytes + body.size();
  if (Fnv1a(body) != ReadLe(bytes, 4, 8)) {
    frame.status = SnapshotStatus::kBadChecksum;
    return frame;
  }
  SnapshotReader reader(body);
  const std::uint32_t version = reader.U32();
  if (!reader.ok() || version != kFormatVersion) {
    frame.status = SnapshotStatus::kBadVersion;
    return frame;
  }
  frame.fields = body.substr(reader.consumed());
  return frame;
}

std::string SealSnapshot(std::string_view kind,
                         std::uint64_t config_fingerprint,
                         std::string_view payload) {
  SnapshotWriter fields;
  fields.Str(kind);
  fields.U64(config_fingerprint);
  std::string body = fields.TakeData();
  body += payload;
  return std::string(kMagic) + SealFrame(body);
}

SnapshotStatus OpenSnapshot(std::string_view blob, std::string_view kind,
                            std::uint64_t config_fingerprint,
                            std::string_view* payload) {
  if (!blob.starts_with(kMagic)) return SnapshotStatus::kBadMagic;
  const Frame frame = OpenFrame(blob.substr(kMagic.size()));
  // The frame must end exactly where the blob does: trailing bytes would
  // escape the checksum.
  if (frame.status == SnapshotStatus::kBadLength ||
      kMagic.size() + frame.size != blob.size()) {
    return SnapshotStatus::kBadLength;
  }
  if (frame.status != SnapshotStatus::kOk) return frame.status;
  SnapshotReader reader(frame.fields);
  if (reader.Str() != kind || !reader.ok()) return SnapshotStatus::kBadKind;
  if (reader.U64() != config_fingerprint || !reader.ok()) {
    return SnapshotStatus::kBadFingerprint;
  }
  // A zero-length payload cannot be a field stream.
  if (reader.exhausted()) return SnapshotStatus::kBadLength;
  *payload = frame.fields.substr(reader.consumed());
  return SnapshotStatus::kOk;
}

std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t h) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace sds
