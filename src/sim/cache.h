// Set-associative last-level cache with true LRU replacement.
//
// This is a real (scaled) cache model, not a statistical one: VMs own disjoint
// line-address ranges, their accesses contend for the same physical sets, and
// the LLC cleansing attack's effect on victim miss counts EMERGES from actual
// evictions rather than being injected. The default configuration scales the
// paper's 35 MB / 20-way Xeon LLC down to 2 MiB / 16-way; shapes are
// scale-free. Measured on a shared 4-vCPU x86 box (perfbench, one thread,
// RelWithDebInfo, median of 10 runs): 27.6k simulated ticks/s on the
// cleansing deployment (terasort_cleanse_kstest, ~1800 ops/tick, 80% misses)
// and 72.2k ticks/s on the 9-VM bus-lock one (pca_buslock_sds).
//
// Each set is one packed 144-byte block: the tags and owners of its ways plus
// a recency stack, a uint64 holding one 4-bit way index per nibble with the
// MRU way in the low nibble. A way's tag is the line address above the set
// index bits, stored in 32 bits, so a lookup compares all 16 tags with four
// 4-lane vector compares. The tag is exact only while addr >> log2(sets) fits
// in 32 bits; Access checks that on every call (VMs space their ranges
// 2^vm::kVmLineBits lines apart, so 32 owners fit at any set count). Lines
// are only ever invalidated all at once (by Flush), so the valid ways are
// always the prefix [0, fill): a miss fills way `fill` while the set has
// room, and otherwise evicts the way in nibble ways-1, the LRU. A hit moves
// its way to the front with constant-time nibble arithmetic, so no access
// scans for a victim. The 4-bit nibbles cap the associativity at 16 ways.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/attribution.h"

namespace sds::sim {

struct CacheConfig {
  // Number of sets; must be a power of two.
  std::uint32_t sets = 2048;
  // Associativity (lines per set), 1..16: the recency stack packs one 4-bit
  // way index per way into a uint64. Paper hardware is 20-way; the default
  // scales it down with the set count.
  std::uint32_t ways = 16;
};

struct CacheAccessResult {
  bool hit = false;
  // Owner of the line that was evicted to make room (only meaningful when
  // !hit and a valid line was displaced).
  bool evicted_valid = false;
  OwnerId evicted_owner = 0;
};

class LastLevelCache {
 public:
  explicit LastLevelCache(const CacheConfig& config);

  // Performs a load of `addr` on behalf of `owner`: on hit refreshes LRU, on
  // miss fills the line (evicting the LRU way). Aborts unless
  // addr >> log2(sets) fits in 32 bits (see the file comment).
  CacheAccessResult Access(OwnerId owner, LineAddr addr);

  // Attaches the interference attribution ledger (nullptr detaches). While
  // attached, every eviction of a valid line is recorded against the owner
  // that forced it — ways are already tagged with their owner, so the
  // inflicted/suffered matrix falls out of the replacement decision itself.
  // The only cost on the detached path is a null test in the eviction
  // branch; the hit path is untouched.
  void AttachLedger(AttributionLedger* ledger) { ledger_ = ledger; }

  // True when the line currently resides in the cache (no state change).
  // Same address range as Access.
  bool Contains(LineAddr addr) const;

  // Number of valid lines currently owned by `owner` (introspection for
  // tests and occupancy diagnostics; a real attacker infers this by timing).
  std::size_t CountOwnerLines(OwnerId owner) const;

  // Number of valid lines owned by `owner` within one set.
  std::uint32_t OwnerLinesInSet(std::uint32_t set, OwnerId owner) const;

  std::uint32_t SetIndexOf(LineAddr addr) const {
    return static_cast<std::uint32_t>(addr) & set_mask_;
  }

  const CacheConfig& config() const { return config_; }
  std::size_t total_lines() const {
    return static_cast<std::size_t>(config_.sets) * config_.ways;
  }

  void Flush();

 private:
  static constexpr std::uint32_t kMaxWays = 16;
  // Four 32-bit tags, compared in one vector operation (GCC/Clang vector
  // extension; SSE2 on baseline x86-64, which has no 64-bit lane compare).
  using TagLanes = std::uint32_t __attribute__((vector_size(16)));
  static constexpr std::uint32_t kLanes = 4;

  // Deliberately not alignas(64): the vector would then allocate through
  // aligned operator new, and a build that did so read about three times
  // the peak RSS on the accuracy grid.
  struct Set {
    // All kMaxWays tags are compared on every lookup, so they come first.
    // Ways at or past `fill` hold 0 or stale tags; FindWay masks them out.
    std::uint32_t tag[kMaxWays] = {};
    OwnerId owner[kMaxWays] = {};
    // Way indices by recency, 4 bits each, MRU in the low nibble. Only the
    // low `fill` nibbles are meaningful; evictions shift stale nibbles past
    // position ways-1, where nothing reads them.
    std::uint64_t stack = 0;
    std::uint32_t fill = 0;  // ways [0, fill) hold valid lines
  };

  // The tag `addr` carries in its set; aborts when it does not fit 32 bits.
  std::uint32_t TagOf(LineAddr addr) const;
  // Way holding `tag` in `set`, or -1. Branch-free: four 4-lane compares
  // fold into a 16-bit mask, the valid prefix [0, fill) masks out stale and
  // unused ways, and the lowest set bit names the way.
  static int FindWay(const Set& set, std::uint32_t tag);
  static std::uint64_t MoveToFront(std::uint64_t stack, std::uint32_t w);

  CacheConfig config_;
  std::uint32_t set_mask_;
  std::uint32_t set_bits_;   // log2(sets): the tag is addr >> set_bits_
  std::uint32_t lru_shift_;  // bit offset of the LRU nibble of a full set
  std::vector<Set> sets_;
  AttributionLedger* ledger_ = nullptr;  // not owned; see AttachLedger
};

// The per-access path is defined in the header so that Machine::Access and
// its callers inline it.

inline std::uint32_t LastLevelCache::TagOf(LineAddr addr) const {
  const LineAddr tag = addr >> set_bits_;
  SDS_CHECK(tag >> 32 == 0, "line address past the cache's 32-bit tag range");
  return static_cast<std::uint32_t>(tag);
}

inline int LastLevelCache::FindWay(const Set& set, std::uint32_t tag) {
  // Lane l of group g stands for way 4g + l: a matching lane keeps its bit,
  // and OR-ing the lanes together gives the 16-bit way mask.
  const TagLanes key = {tag, tag, tag, tag};
  const auto group = [&](std::uint32_t g) {
    TagLanes lanes;
    std::memcpy(&lanes, &set.tag[kLanes * g], sizeof lanes);
    const std::uint32_t b = 1u << (kLanes * g);
    const TagLanes weight = {b, b << 1, b << 2, b << 3};
    return reinterpret_cast<TagLanes>(lanes == key) & weight;
  };
  const TagLanes bits = group(0) | group(1) | group(2) | group(3);
  std::uint32_t match = bits[0] | bits[1] | bits[2] | bits[3];
  // A line occupies at most one valid way: at most one bit survives.
  match &= (1u << set.fill) - 1;
  return match == 0 ? -1 : std::countr_zero(match);
}

// Moves way `w`, which the stack holds, to the MRU nibble; the nibbles in
// front of it shift back by one. x has a zero nibble wherever w sits, and the
// lowest flagged nibble of the SWAR zero test is exact (a borrow can only
// flag nibbles above a true zero), so a stale copy of w past `fill` never
// wins over its real position.
inline std::uint64_t LastLevelCache::MoveToFront(std::uint64_t stack,
                                                 std::uint32_t w) {
  constexpr std::uint64_t kNibbleOnes = 0x1111111111111111ull;
  constexpr std::uint64_t kNibbleHighs = 0x8888888888888888ull;
  const std::uint64_t x = stack ^ (w * kNibbleOnes);
  const std::uint64_t zeros = (x - kNibbleOnes) & ~x & kNibbleHighs;
  const int pos = std::countr_zero(zeros) & ~3;  // bit offset of w's nibble
  const std::uint64_t front = stack & ((std::uint64_t{1} << pos) - 1);
  const std::uint64_t back = stack & ((~std::uint64_t{0} << pos) << 4);
  return back | (front << 4) | w;
}

inline CacheAccessResult LastLevelCache::Access(OwnerId owner, LineAddr addr) {
  Set& set = sets_[SetIndexOf(addr)];
  const std::uint32_t tag = TagOf(addr);
  CacheAccessResult result;

  if (const int way = FindWay(set, tag); way >= 0) {
    const auto w = static_cast<std::uint32_t>(way);
    set.stack = MoveToFront(set.stack, w);
    set.owner[w] = owner;  // shared lines re-tag to the latest toucher
    result.hit = true;
    return result;
  }

  // Miss: fill the first invalid way, or evict the LRU way.
  std::uint32_t victim;
  if (set.fill < config_.ways) {
    victim = set.fill++;
    set.stack = (set.stack << 4) | victim;
  } else {
    victim = static_cast<std::uint32_t>(set.stack >> lru_shift_) & 0xF;
    set.stack = (set.stack << 4) | victim;
    result.evicted_valid = true;
    result.evicted_owner = set.owner[victim];
    if (ledger_ != nullptr) ledger_->RecordEviction(owner, set.owner[victim]);
  }
  set.tag[victim] = tag;
  set.owner[victim] = owner;
  return result;
}

}  // namespace sds::sim
