#include "sim/cache.h"

#include <bit>

#include "common/check.h"
#include "sim/attribution.h"

namespace sds::sim {
namespace {

constexpr std::uint64_t kNibbleOnes = 0x1111111111111111ull;
constexpr std::uint64_t kNibbleHighs = 0x8888888888888888ull;

// Moves way `w`, which the stack holds, to the MRU nibble; the nibbles in
// front of it shift back by one. x has a zero nibble wherever w sits, and the
// lowest flagged nibble of the SWAR zero test is exact (a borrow can only
// flag nibbles above a true zero), so a stale copy of w past `fill` never
// wins over its real position.
std::uint64_t MoveToFront(std::uint64_t stack, std::uint32_t w) {
  const std::uint64_t x = stack ^ (w * kNibbleOnes);
  const std::uint64_t zeros = (x - kNibbleOnes) & ~x & kNibbleHighs;
  const int pos = std::countr_zero(zeros) & ~3;  // bit offset of w's nibble
  const std::uint64_t front = stack & ((std::uint64_t{1} << pos) - 1);
  const std::uint64_t back = stack & ((~std::uint64_t{0} << pos) << 4);
  return back | (front << 4) | w;
}

}  // namespace

LastLevelCache::LastLevelCache(const CacheConfig& config) : config_(config) {
  SDS_CHECK(config.sets > 0 && (config.sets & (config.sets - 1)) == 0,
            "cache sets must be a power of two");
  SDS_CHECK(config.ways > 0, "cache needs at least one way");
  SDS_CHECK(config.ways <= kMaxWays, "cache supports at most 16 ways");
  set_mask_ = config.sets - 1;
  lru_shift_ = 4 * (config.ways - 1);
  sets_.resize(config.sets);
}

int LastLevelCache::FindWay(const Set& set, LineAddr addr) {
  for (std::uint32_t w = 0; w < set.fill; ++w) {
    if (set.tag[w] == addr) return static_cast<int>(w);
  }
  return -1;
}

CacheAccessResult LastLevelCache::Access(OwnerId owner, LineAddr addr) {
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

bool LastLevelCache::Contains(LineAddr addr) const {
  return FindWay(sets_[SetIndexOf(addr)], addr) >= 0;
}

std::size_t LastLevelCache::CountOwnerLines(OwnerId owner) const {
  std::size_t count = 0;
  for (std::uint32_t s = 0; s < config_.sets; ++s) {
    count += OwnerLinesInSet(s, owner);
  }
  return count;
}

std::uint32_t LastLevelCache::OwnerLinesInSet(std::uint32_t set,
                                              OwnerId owner) const {
  SDS_CHECK(set < config_.sets, "set index out of range");
  const Set& s = sets_[set];
  std::uint32_t count = 0;
  for (std::uint32_t w = 0; w < s.fill; ++w) {
    if (s.owner[w] == owner) ++count;
  }
  return count;
}

void LastLevelCache::Flush() {
  for (Set& set : sets_) {
    set.stack = 0;
    set.fill = 0;
  }
}

}  // namespace sds::sim
