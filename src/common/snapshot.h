// Typed field-stream serialization primitives for detector state snapshots.
//
// A SnapshotWriter appends tagged fields (u64 / i64 / f64 / bool / string /
// double-vector) to a byte buffer; a SnapshotReader consumes them in the same
// order, verifying each field's 1-byte type tag. Any mismatch — wrong tag,
// truncated buffer, oversized length — sets a STICKY error flag instead of
// throwing or aborting, so a corrupted snapshot is rejected gracefully by the
// caller checking ok() once at the end.
//
// Determinism: doubles are serialized as their IEEE-754 bit pattern
// (little-endian u64), so a save/restore round trip is bit-exact — the
// foundation of the restart-without-rewarm guarantee pinned by
// tests/obs/snapshot_test. Framing (magic, version, checksum) is layered on
// top by obs/snapshot.h; this module is only the field stream.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sds {

class SnapshotWriter {
 public:
  void U64(std::uint64_t v);
  void I64(std::int64_t v);
  void U32(std::uint32_t v);
  void F64(double v);
  void Bool(bool v);
  void Str(std::string_view v);
  void VecF64(const std::vector<double>& v);

  const std::string& data() const { return data_; }
  std::string TakeData() { return std::move(data_); }

 private:
  void Raw64(std::uint64_t v);

  std::string data_;
};

class SnapshotReader {
 public:
  explicit SnapshotReader(std::string_view data) : data_(data) {}

  std::uint64_t U64();
  std::int64_t I64();
  std::uint32_t U32();
  double F64();
  bool Bool();
  std::string Str();
  std::vector<double> VecF64();

  // False once any read hit a tag mismatch or ran off the end. All reads
  // after an error return zero values; callers check once, at the end.
  bool ok() const { return ok_; }
  // True when every byte was consumed (trailing garbage is corruption).
  bool exhausted() const { return pos_ == data_.size(); }
  // Bytes consumed so far — lets an envelope reader locate the payload that
  // follows a header without re-deriving field widths.
  std::size_t consumed() const { return pos_; }

 private:
  bool Take(char expected_tag);
  std::uint64_t Raw64();

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// FNV-1a over a byte string; the checksum obs/snapshot.h seals envelopes
// with. Exposed here so every hasher in src/ shares one definition. `h` is
// the starting state: the standard offset basis by default, or a previous
// call's result to continue hashing a longer stream piece by piece.
std::uint64_t Fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

}  // namespace sds
