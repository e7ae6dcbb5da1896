#include "sim/cache.h"

#include "common/check.h"

namespace sds::sim {

LastLevelCache::LastLevelCache(const CacheConfig& config) : config_(config) {
  SDS_CHECK(config.sets > 0 && (config.sets & (config.sets - 1)) == 0,
            "cache sets must be a power of two");
  SDS_CHECK(config.ways > 0, "cache needs at least one way");
  SDS_CHECK(config.ways <= kMaxWays, "cache supports at most 16 ways");
  set_mask_ = config.sets - 1;
  set_bits_ = static_cast<std::uint32_t>(std::countr_zero(config.sets));
  lru_shift_ = 4 * (config.ways - 1);
  sets_.resize(config.sets);
}

bool LastLevelCache::Contains(LineAddr addr) const {
  return FindWay(sets_[SetIndexOf(addr)], TagOf(addr)) >= 0;
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
