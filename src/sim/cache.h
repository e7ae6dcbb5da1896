// Set-associative last-level cache with true LRU replacement.
//
// This is a real (scaled) cache model, not a statistical one: VMs own disjoint
// line-address ranges, their accesses contend for the same physical sets, and
// the LLC cleansing attack's effect on victim miss counts EMERGES from actual
// evictions rather than being injected. The default configuration scales the
// paper's 35 MB / 20-way Xeon LLC down to 2 MiB / 16-way; shapes are
// scale-free. Measured on a shared 4-vCPU x86 box (perfbench, one thread,
// RelWithDebInfo): 17-18k simulated ticks/s on the cleansing deployment
// (terasort_cleanse_kstest, ~1800 ops/tick, 80% misses) and 44-55k ticks/s
// on the 9-VM bus-lock one (pca_buslock_sds).
//
// Each set is one packed block: the tags and owners of its ways plus a
// recency stack, a uint64 holding one 4-bit way index per nibble with the
// MRU way in the low nibble. Lines are only ever invalidated all at once (by
// Flush), so the valid ways are always the prefix [0, fill): a miss fills way
// `fill` while the set has room, and otherwise evicts the way in nibble
// ways-1, the LRU. A hit moves its way to the front with constant-time nibble
// arithmetic, so no access scans for a victim. The 4-bit nibbles cap the
// associativity at 16 ways.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

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
  // miss fills the line (evicting the LRU way).
  CacheAccessResult Access(OwnerId owner, LineAddr addr);

  // Attaches the interference attribution ledger (nullptr detaches). While
  // attached, every eviction of a valid line is recorded against the owner
  // that forced it — ways are already tagged with their owner, so the
  // inflicted/suffered matrix falls out of the replacement decision itself.
  // The only cost on the detached path is a null test in the eviction
  // branch; the hit path is untouched.
  void AttachLedger(AttributionLedger* ledger) { ledger_ = ledger; }

  // True when the line currently resides in the cache (no state change).
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

  // Deliberately not alignas(64): the vector would then allocate through
  // aligned operator new, and a build that did so read about three times
  // the peak RSS on the accuracy grid.
  struct Set {
    // All kMaxWays tags are compared on every lookup, so they come first.
    // Ways at or past `fill` hold 0 or stale tags; FindWay masks them out.
    LineAddr tag[kMaxWays] = {};
    OwnerId owner[kMaxWays] = {};
    // Way indices by recency, 4 bits each, MRU in the low nibble. Only the
    // low `fill` nibbles are meaningful; evictions shift stale nibbles past
    // position ways-1, where nothing reads them.
    std::uint64_t stack = 0;
    std::uint32_t fill = 0;  // ways [0, fill) hold valid lines
  };

  // Way holding `addr` in `set`, or -1. Branch-free: one equality compare
  // per way folds into a bitmask, the valid prefix [0, fill) masks out stale
  // and unused ways, and the lowest set bit names the way.
  static int FindWay(const Set& set, LineAddr addr);
  static std::uint64_t MoveToFront(std::uint64_t stack, std::uint32_t w);

  CacheConfig config_;
  std::uint32_t set_mask_;
  std::uint32_t lru_shift_;  // bit offset of the LRU nibble of a full set
  std::vector<Set> sets_;
  AttributionLedger* ledger_ = nullptr;  // not owned; see AttachLedger
};

// The per-access path is defined in the header so that Machine::Access and
// its callers inline it.

// One compare per way, unrolled by the fold (a loop over the ways was
// measured slower: compilers keep it rolled at -O2).
template <std::size_t... W>
inline std::uint32_t MatchMask(const LineAddr* tag, LineAddr addr,
                               std::index_sequence<W...> /*ways*/) {
  return ((static_cast<std::uint32_t>(tag[W] == addr) << W) | ...);
}

inline int LastLevelCache::FindWay(const Set& set, LineAddr addr) {
  std::uint32_t match =
      MatchMask(set.tag, addr, std::make_index_sequence<kMaxWays>{});
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
  CacheAccessResult result;

  if (const int way = FindWay(set, addr); way >= 0) {
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
  set.tag[victim] = addr;
  set.owner[victim] = owner;
  return result;
}

}  // namespace sds::sim
