// The one codec for every durable byte stream (DESIGN.md §13): detector
// handoffs, service checkpoints and WAL records.
//
// Three pieces, innermost first:
//
//   * The FIELD STREAM. A SnapshotWriter appends tagged fields (u64 / i64 /
//     f64 / bool / string / double-vector) to a byte buffer; a
//     SnapshotReader consumes them in the same order, verifying each
//     field's 1-byte type tag. Any mismatch — wrong tag, truncated buffer,
//     oversized length — sets a STICKY error flag instead of throwing or
//     aborting, so a corrupted stream is rejected gracefully by the caller
//     checking ok() once at the end. Doubles are serialized as their
//     IEEE-754 bit pattern (little-endian u64), so a save/restore round
//     trip is bit-exact.
//   * The FRAME: `u32 len | u64 fnv1a(body) | body`, little-endian, where
//     the body opens with the tagged U32 kFormatVersion and the caller's
//     fields follow. The checksum covers the version and every field.
//     SealFrame and OpenFrame are the only code that writes or checks a
//     length, a checksum or the version. A WAL is a run of frames.
//   * The ENVELOPE: `"SDSSNAP\0" | frame(body = version | kind | config
//     fingerprint | payload fields)`. A checkpoint or a handoff is one
//     envelope. OpenSnapshot reports WHICH rung failed, so a restart can
//     tell "different configuration" (refused) from "corrupt" (alert).
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
  // Bytes consumed so far — lets a reader locate the fields that follow a
  // header without re-deriving field widths.
  std::size_t consumed() const { return pos_; }

 private:
  bool Take(char expected_tag);
  std::uint64_t Raw64();

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// The format version every frame body opens with. A hand-set number: bump
// it when the frame, the envelope or any field layout sealed inside one
// changes; OpenFrame rejects every other value (no migration — stale state
// re-warms). DESIGN.md §13 says why no content key replaces it.
inline constexpr std::uint32_t kFormatVersion = 3;

// Why a frame or an envelope was refused. The WAL reports the frame rungs
// under its own names (svc/wal.h).
enum class SnapshotStatus : std::uint8_t {
  kOk,
  kBadMagic,        // not an envelope at all
  kBadVersion,      // sealed by a different release
  kBadKind,         // envelope of a different kind
  kBadFingerprint,  // configured differently than at save time
  kBadLength,       // frame cut short, followed by trailing bytes, or an
                    // envelope with no payload (checked BEFORE the checksum:
                    // a forged length must never choose which bytes get
                    // summed)
  kBadChecksum,     // body bytes corrupted
  kCorrupt,         // field stream inconsistent with the state it restores
};

const char* SnapshotStatusName(SnapshotStatus status);

// Frames `fields` behind the version field. `version` is kFormatVersion
// except where a test forges a frame sealed by another release.
std::string SealFrame(std::string_view fields,
                      std::uint32_t version = kFormatVersion);

struct Frame {
  // kOk, kBadLength (header or body cut short), kBadChecksum or kBadVersion.
  SnapshotStatus status = SnapshotStatus::kOk;
  // Header + body bytes; 0 when the frame was cut short.
  std::size_t size = 0;
  // The body past the version field; set only when kOk.
  std::string_view fields;
};

// Reads the frame at the front of `bytes`; bytes past it are the caller's.
Frame OpenFrame(std::string_view bytes);

// Seals a payload field stream as one envelope.
std::string SealSnapshot(std::string_view kind,
                         std::uint64_t config_fingerprint,
                         std::string_view payload);

// Opens an envelope: on kOk, *payload views the payload fields inside
// `blob`. Never returns kCorrupt; that rung is the restoring caller's.
SnapshotStatus OpenSnapshot(std::string_view blob, std::string_view kind,
                            std::uint64_t config_fingerprint,
                            std::string_view* payload);

// FNV-1a over a byte string; the frame checksum. `h` is the starting
// state: the standard offset basis by default, or a previous call's result
// to continue hashing a longer stream piece by piece.
std::uint64_t Fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

// FNV-1a over a sequence of values in native byte order, doubles by bit
// pattern, for fingerprints of run outputs that tests and BENCH payloads
// pin. Its start state is not the standard offset basis (it drops the
// basis's last digit); it is kept so every recorded fingerprint stays
// comparable.
class Fingerprinter {
 public:
  void Bytes(const void* data, std::size_t n) {
    hash_ = Fnv1a(std::string_view(static_cast<const char*>(data), n), hash_);
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  void Str(std::string_view s) { Bytes(s.data(), s.size()); }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

}  // namespace sds
