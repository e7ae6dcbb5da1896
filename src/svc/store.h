// Stable-storage seam for the streaming detection service.
//
// Everything the service must not lose across a crash goes through a
// StableStore: WAL frames (append-only byte string) and checkpoint blobs
// (envelopes around one frame). Both are common/snapshot.h frames — u32
// length | u64 fnv1a | versioned body — so the store itself never parses
// bytes; the codec rejects whatever a crash tore. The interface is
// deliberately tiny so two implementations can share the service
// unchanged:
//
//   * MemStore  — in-memory, used by tests and the chaos harness. It
//     interprets a fault::ServiceFaultPlan: at a planned operation ordinal
//     it keeps only a torn prefix of the written bytes and flips the store
//     into the CRASHED state, after which every operation fails — exactly
//     like a process that lost power mid-write. The surviving bytes are then
//     handed to a fresh service, which must recover.
//   * FileStore — file-backed, used by the `svcd` binary. Checkpoints go
//     through write-to-temp + rename so a torn checkpoint can never replace
//     a good one.
//
// Checkpoint atomicity is TWO-SLOT in both stores: WriteCheckpoint writes
// the new blob into the inactive slot and only then promotes it to active.
// A crash mid-write tears the inactive slot; the active slot — the previous
// good checkpoint — survives, and the torn blob is rejected by its frame's
// length or checksum on recovery.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "fault/service_plan.h"

namespace sds::svc {

class StableStore {
 public:
  virtual ~StableStore() = default;

  // Appends bytes to the WAL. Returns false if the store is (or just became)
  // crashed; a crash mid-append may still have persisted a torn prefix.
  virtual bool AppendWal(std::string_view bytes) = 0;

  // Replaces the checkpoint via the two-slot protocol. Returns false on
  // crash; the previously active checkpoint is preserved in that case.
  virtual bool WriteCheckpoint(std::string_view blob) = 0;

  // Drops the first `bytes` bytes of the WAL (everything the active
  // checkpoint already covers). Returns false on crash.
  virtual bool TruncateWal(std::uint64_t bytes) = 0;

  // Recovery-side reads. Defined even after a crash: they return whatever
  // reached stable storage (recovery is exactly the consumer of a crashed
  // store's remains).
  virtual std::string ReadWal() const = 0;
  virtual std::string ReadCheckpoint() const = 0;

  // True once a planned crash point fired (MemStore) or an I/O error was
  // hit (FileStore). A crashed store never accepts another write.
  virtual bool crashed() const = 0;
};

// In-memory store with deterministic crash injection. Operation ordinals
// are 1-based and counted per class: WAL appends for the *WalAppend kinds,
// checkpoint writes for kCrashMidCheckpoint.
class MemStore final : public StableStore {
 public:
  MemStore() = default;
  explicit MemStore(fault::ServiceFaultPlan plan) : plan_(std::move(plan)) {}

  bool AppendWal(std::string_view bytes) override;
  bool WriteCheckpoint(std::string_view blob) override;
  bool TruncateWal(std::uint64_t bytes) override;
  std::string ReadWal() const override { return wal_; }
  std::string ReadCheckpoint() const override;
  bool crashed() const override { return crashed_; }

  // Hands the surviving bytes to a fresh store (the "restart"): same WAL,
  // same slots, inert fault plan.
  MemStore Reincarnate() const;

  std::uint64_t wal_appends() const { return wal_appends_; }
  std::uint64_t checkpoint_writes() const { return checkpoint_writes_; }

 private:
  // Returns the planned crash point armed for this operation, or nullptr.
  const fault::ServiceCrashPoint* PointFor(fault::ServiceFaultKind a,
                                           fault::ServiceFaultKind b,
                                           std::uint64_t ordinal) const;

  fault::ServiceFaultPlan plan_;
  std::string wal_;
  // slots_[active_slot_] is the durable checkpoint; the other slot is
  // scratch for the write in flight.
  std::string slots_[2];
  int active_slot_ = -1;  // -1: no checkpoint yet
  std::uint64_t wal_appends_ = 0;
  std::uint64_t checkpoint_writes_ = 0;
  bool crashed_ = false;
};

// File-backed store rooted at `dir`: <dir>/wal.log, <dir>/ckpt.snap
// (+ ckpt.snap.tmp during writes). Creates the directory if missing.
class FileStore final : public StableStore {
 public:
  explicit FileStore(std::string dir);

  bool AppendWal(std::string_view bytes) override;
  bool WriteCheckpoint(std::string_view blob) override;
  bool TruncateWal(std::uint64_t bytes) override;
  std::string ReadWal() const override;
  std::string ReadCheckpoint() const override;
  bool crashed() const override { return crashed_; }

  const std::string& dir() const { return dir_; }

 private:
  std::string WalPath() const;
  std::string CkptPath() const;

  std::string dir_;
  bool crashed_ = false;
};

}  // namespace sds::svc
