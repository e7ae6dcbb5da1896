#include "common/snapshot.h"

#include <cstring>

namespace sds {
namespace {

// One tag byte per field so a reader that drifts out of sync (truncation,
// flipped bytes, version skew the envelope missed) fails at the next field
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

}  // namespace

void SnapshotWriter::Raw64(std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  data_.append(bytes, 8);
}

void SnapshotWriter::U64(std::uint64_t v) {
  data_.push_back(kTagU64);
  Raw64(v);
}

void SnapshotWriter::I64(std::int64_t v) {
  data_.push_back(kTagI64);
  Raw64(static_cast<std::uint64_t>(v));
}

void SnapshotWriter::U32(std::uint32_t v) {
  data_.push_back(kTagU32);
  Raw64(v);
}

void SnapshotWriter::F64(double v) {
  data_.push_back(kTagF64);
  Raw64(std::bit_cast<std::uint64_t>(v));
}

void SnapshotWriter::Bool(bool v) {
  data_.push_back(kTagBool);
  data_.push_back(v ? '\1' : '\0');
}

void SnapshotWriter::Str(std::string_view v) {
  data_.push_back(kTagStr);
  Raw64(v.size());
  data_.append(v.data(), v.size());
}

void SnapshotWriter::VecF64(const std::vector<double>& v) {
  data_.push_back(kTagVecF64);
  Raw64(v.size());
  for (double d : v) Raw64(std::bit_cast<std::uint64_t>(d));
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
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(
                                                         i)]))
         << (8 * i);
  }
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

std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t h) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace sds
