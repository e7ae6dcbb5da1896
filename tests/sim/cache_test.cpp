#include "sim/cache.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace sds::sim {
namespace {

CacheConfig SmallCache(std::uint32_t sets = 8, std::uint32_t ways = 4) {
  CacheConfig c;
  c.sets = sets;
  c.ways = ways;
  return c;
}

TEST(CacheTest, FirstAccessMisses) {
  LastLevelCache cache(SmallCache());
  const auto r = cache.Access(1, 0x100);
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.evicted_valid);
}

TEST(CacheTest, SecondAccessHits) {
  LastLevelCache cache(SmallCache());
  cache.Access(1, 0x100);
  EXPECT_TRUE(cache.Access(1, 0x100).hit);
}

TEST(CacheTest, ContainsReflectsResidency) {
  LastLevelCache cache(SmallCache());
  EXPECT_FALSE(cache.Contains(42));
  cache.Access(1, 42);
  EXPECT_TRUE(cache.Contains(42));
}

TEST(CacheTest, SetIndexUsesLowBits) {
  LastLevelCache cache(SmallCache(8, 4));
  EXPECT_EQ(cache.SetIndexOf(0), 0u);
  EXPECT_EQ(cache.SetIndexOf(7), 7u);
  EXPECT_EQ(cache.SetIndexOf(8), 0u);
  EXPECT_EQ(cache.SetIndexOf(0x123456789), 1u);
}

TEST(CacheTest, SetFillsUpToAssociativity) {
  LastLevelCache cache(SmallCache(8, 4));
  // 4 distinct lines mapping to set 0 all fit.
  for (LineAddr a : {0ull, 8ull, 16ull, 24ull}) cache.Access(1, a);
  for (LineAddr a : {0ull, 8ull, 16ull, 24ull}) {
    EXPECT_TRUE(cache.Contains(a));
  }
  EXPECT_EQ(cache.OwnerLinesInSet(0, 1), 4u);
}

TEST(CacheTest, LruEvictionOrder) {
  LastLevelCache cache(SmallCache(8, 2));
  cache.Access(1, 0);   // set 0
  cache.Access(1, 8);   // set 0
  cache.Access(1, 0);   // refresh 0: LRU is now 8
  const auto r = cache.Access(1, 16);  // evicts 8
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.evicted_valid);
  EXPECT_TRUE(cache.Contains(0));
  EXPECT_FALSE(cache.Contains(8));
  EXPECT_TRUE(cache.Contains(16));
}

TEST(CacheTest, EvictionReportsVictimOwner) {
  LastLevelCache cache(SmallCache(8, 2));
  cache.Access(7, 0);
  cache.Access(7, 8);
  const auto r = cache.Access(3, 16);
  EXPECT_TRUE(r.evicted_valid);
  EXPECT_EQ(r.evicted_owner, 7u);
}

TEST(CacheTest, DistinctSetsDoNotInterfere) {
  LastLevelCache cache(SmallCache(8, 2));
  // Fill set 0 beyond capacity; set 1 lines must be untouched.
  cache.Access(1, 1);
  cache.Access(1, 9);
  for (LineAddr a : {0ull, 8ull, 16ull, 24ull}) cache.Access(1, a);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(9));
}

TEST(CacheTest, CountOwnerLines) {
  LastLevelCache cache(SmallCache(8, 4));
  for (LineAddr a = 0; a < 10; ++a) cache.Access(2, a);
  for (LineAddr a = 100; a < 103; ++a) cache.Access(5, a);
  EXPECT_EQ(cache.CountOwnerLines(2), 10u);
  EXPECT_EQ(cache.CountOwnerLines(5), 3u);
  EXPECT_EQ(cache.CountOwnerLines(9), 0u);
}

TEST(CacheTest, FlushEmptiesEverything) {
  LastLevelCache cache(SmallCache());
  for (LineAddr a = 0; a < 20; ++a) cache.Access(1, a);
  cache.Flush();
  EXPECT_EQ(cache.CountOwnerLines(1), 0u);
  EXPECT_FALSE(cache.Contains(0));
  EXPECT_FALSE(cache.Access(1, 0).hit);
}

// Ways past `fill` keep stale tags after Flush, and a fresh set's unused ways
// hold tag 0; neither may ever match. Covers the one-way, odd-width and
// full-width match masks.
TEST(CacheTest, FreshAndFlushedSetsMatchNothing) {
  for (std::uint32_t ways : {1u, 15u, 16u}) {
    SCOPED_TRACE(ways);
    LastLevelCache fresh(SmallCache(8, ways));
    EXPECT_FALSE(fresh.Contains(0));
    EXPECT_FALSE(fresh.Access(1, 0).hit);

    LastLevelCache cache(SmallCache(8, ways));
    std::vector<LineAddr> resident;
    for (std::uint32_t w = 0; w < ways; ++w) resident.push_back(w * 8ull);
    for (LineAddr a : resident) cache.Access(1, a);
    for (LineAddr a : resident) ASSERT_TRUE(cache.Contains(a));
    cache.Flush();
    EXPECT_FALSE(cache.Contains(0));
    for (LineAddr a : resident) EXPECT_FALSE(cache.Contains(a)) << a;
    // Refill one way with a new line: the stale tags behind it stay dead.
    EXPECT_FALSE(cache.Access(1, 8ull * ways).hit);
    for (LineAddr a : resident) EXPECT_FALSE(cache.Contains(a)) << a;
    for (LineAddr a : resident) EXPECT_FALSE(cache.Access(2, a).hit) << a;
  }
}

TEST(CacheTest, CleansingPattern) {
  // The attack's core primitive: filling a set with `ways` fresh lines must
  // evict every pre-existing line in it.
  LastLevelCache cache(SmallCache(4, 4));
  cache.Access(1, 0);  // victim line, set 0
  cache.Access(1, 4);  // victim line, set 0
  for (std::uint32_t w = 0; w < 4; ++w) {
    cache.Access(2, 1000 * 4 + static_cast<LineAddr>(w) * 4);  // set 0 lines
  }
  EXPECT_FALSE(cache.Contains(0));
  EXPECT_FALSE(cache.Contains(4));
  EXPECT_EQ(cache.OwnerLinesInSet(0, 2), 4u);
}

// Invariant sweep: occupancy per set never exceeds associativity; the total
// number of valid lines never exceeds capacity; hits never evict.
class CacheInvariantTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CacheInvariantTest, RandomWorkloadInvariants) {
  const auto [sets, ways] = GetParam();
  LastLevelCache cache(SmallCache(static_cast<std::uint32_t>(sets),
                                  static_cast<std::uint32_t>(ways)));
  Rng rng(static_cast<std::uint64_t>(sets * 31 + ways));
  for (int i = 0; i < 20000; ++i) {
    const OwnerId owner = 1 + static_cast<OwnerId>(rng.UniformInt(3ull));
    const LineAddr addr = rng.UniformInt(static_cast<std::uint64_t>(
        sets * ways * 3));
    const bool was_resident = cache.Contains(addr);
    const auto r = cache.Access(owner, addr);
    EXPECT_EQ(r.hit, was_resident);
    if (r.hit) {
      EXPECT_FALSE(r.evicted_valid);
    }
    EXPECT_TRUE(cache.Contains(addr));
  }
  std::size_t total = 0;
  for (OwnerId o = 1; o <= 3; ++o) total += cache.CountOwnerLines(o);
  EXPECT_LE(total, cache.total_lines());
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(sets); ++s) {
    std::uint32_t in_set = 0;
    for (OwnerId o = 1; o <= 3; ++o) in_set += cache.OwnerLinesInSet(s, o);
    EXPECT_LE(in_set, static_cast<std::uint32_t>(ways));
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheInvariantTest,
                         ::testing::Combine(::testing::Values(4, 16, 64),
                                            ::testing::Values(1, 2, 8, 16)));

TEST(CacheTest, WorkingSetSmallerThanCacheAlwaysHitsEventually) {
  LastLevelCache cache(SmallCache(64, 8));
  Rng rng(77);
  const std::uint64_t wss = 64 * 8 / 2;  // half the cache
  // Warm up.
  for (int i = 0; i < 5000; ++i) cache.Access(1, rng.UniformInt(wss));
  // A working set with uniform reuse and no contention stays resident
  // almost entirely.
  int misses = 0;
  for (int i = 0; i < 5000; ++i) {
    if (!cache.Access(1, rng.UniformInt(wss)).hit) ++misses;
  }
  EXPECT_LT(misses, 50);
}

// Tags are stored in 32 bits: two lines of one set whose tags differ only in
// bit 31 (the top stored bit) are distinct lines.
TEST(CacheTest, TagsDifferingOnlyInBit31AreDistinct) {
  LastLevelCache cache(SmallCache(8, 4));
  const LineAddr low = (LineAddr{0x7fffffff} << 3) | 5;
  const LineAddr high = (LineAddr{0xffffffff} << 3) | 5;
  ASSERT_EQ(cache.SetIndexOf(low), cache.SetIndexOf(high));
  EXPECT_FALSE(cache.Access(1, low).hit);
  EXPECT_FALSE(cache.Contains(high));
  EXPECT_FALSE(cache.Access(2, high).hit);
  EXPECT_TRUE(cache.Access(1, low).hit);
  EXPECT_TRUE(cache.Access(2, high).hit);
  EXPECT_EQ(cache.OwnerLinesInSet(5, 1), 1u);
  EXPECT_EQ(cache.OwnerLinesInSet(5, 2), 1u);
}

// addr >> log2(sets) must fit the 32-bit tag; the first address past that
// range aborts instead of aliasing a line inside it.
TEST(CacheTest, AddressPastTagRangeRejected) {
  LastLevelCache cache(SmallCache(8, 4));
  EXPECT_FALSE(cache.Access(1, (LineAddr{1} << 35) - 1).hit);
  EXPECT_DEATH(cache.Access(1, LineAddr{1} << 35), "32-bit tag range");
}

TEST(CacheTest, MoreThanSixteenWaysRejected) {
  EXPECT_DEATH(LastLevelCache(SmallCache(8, 17)), "16 ways");
}

// Reference LRU: per-line timestamps, fill the first invalid way, else evict
// the way with the oldest stamp. The straightforward model the packed
// recency stack must match access for access.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config)
      : config_(config),
        lines_(static_cast<std::size_t>(config.sets) * config.ways) {}

  CacheAccessResult Access(OwnerId owner, LineAddr addr) {
    Line* base = SetBase(static_cast<std::uint32_t>(addr) & (config_.sets - 1));
    CacheAccessResult result;
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
      if (base[w].valid && base[w].tag == addr) {
        base[w].lru = ++lru_clock_;
        base[w].owner = owner;
        result.hit = true;
        return result;
      }
    }
    Line* victim = nullptr;
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
      if (!base[w].valid) {
        victim = &base[w];
        break;
      }
    }
    if (victim == nullptr) {
      victim = base;
      for (std::uint32_t w = 1; w < config_.ways; ++w) {
        if (base[w].lru < victim->lru) victim = &base[w];
      }
      result.evicted_valid = true;
      result.evicted_owner = victim->owner;
    }
    *victim = Line{addr, owner, ++lru_clock_, true};
    return result;
  }

  std::size_t CountOwnerLines(OwnerId owner) const {
    std::size_t count = 0;
    for (const Line& line : lines_) count += line.valid && line.owner == owner;
    return count;
  }

  std::uint32_t OwnerLinesInSet(std::uint32_t set, OwnerId owner) const {
    const Line* base = &lines_[static_cast<std::size_t>(set) * config_.ways];
    std::uint32_t count = 0;
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
      count += base[w].valid && base[w].owner == owner;
    }
    return count;
  }

  void Flush() {
    for (Line& line : lines_) line.valid = false;
    lru_clock_ = 0;
  }

 private:
  struct Line {
    LineAddr tag = 0;
    OwnerId owner = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };

  Line* SetBase(std::uint32_t set) {
    return &lines_[static_cast<std::size_t>(set) * config_.ways];
  }

  CacheConfig config_;
  std::vector<Line> lines_;
  std::uint64_t lru_clock_ = 0;
};

// Drives the cache and the reference with one seeded stream that mixes hot
// reuse, set-conflict storms (the cleansing pattern: ways+1 fresh lines into
// one set) and scattered misses, flushing both every few thousand accesses.
// Every address stays below 2^32, inside the tag range at any set count:
// owners revisit lines from owner << 24, storms draw fresh lines from 2^28.
class CacheDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CacheDifferentialTest, MatchesTimestampLru) {
  const auto [sets_i, ways_i] = GetParam();
  const auto sets = static_cast<std::uint32_t>(sets_i);
  const auto ways = static_cast<std::uint32_t>(ways_i);
  const CacheConfig config = SmallCache(sets, ways);
  LastLevelCache cache(config);
  ReferenceCache reference(config);
  Rng rng(static_cast<std::uint64_t>(sets * 131 + ways));
  constexpr OwnerId kOwners = 4;
  const std::uint64_t hot_lines = std::max<std::uint64_t>(1, sets * ways / 2);
  const std::uint64_t wide_lines = std::uint64_t{sets} * ways * 4;
  LineAddr storm_cursor = 0;

  auto step = [&](OwnerId owner, LineAddr addr) {
    const CacheAccessResult got = cache.Access(owner, addr);
    const CacheAccessResult want = reference.Access(owner, addr);
    ASSERT_EQ(got.hit, want.hit) << "addr " << addr;
    ASSERT_EQ(got.evicted_valid, want.evicted_valid) << "addr " << addr;
    if (want.evicted_valid) {
      ASSERT_EQ(got.evicted_owner, want.evicted_owner) << "addr " << addr;
    }
  };

  for (int i = 0; i < 40000; ++i) {
    if (i % 7919 == 7918) {
      cache.Flush();
      reference.Flush();
    }
    const OwnerId owner = 1 + static_cast<OwnerId>(rng.UniformInt(kOwners));
    const double mode = rng.UniformDouble();
    if (mode < 0.55) {
      // Hot reuse: each owner revisits its own half-cache working set.
      step(owner, (LineAddr{owner} << 24) + rng.UniformInt(hot_lines));
    } else if (mode < 0.9) {
      // Conflict storm: a burst of fresh lines into one set.
      const std::uint64_t set = rng.UniformInt(std::uint64_t{sets});
      const std::uint64_t burst = 1 + rng.UniformInt(std::uint64_t{ways} + 2);
      for (std::uint64_t b = 0; b < burst; ++b) {
        step(owner, (LineAddr{1} << 28) + (++storm_cursor) * sets + set);
      }
    } else {
      step(owner, (LineAddr{owner} << 24) + rng.UniformInt(wide_lines));
    }
    if (HasFatalFailure()) return;
  }
  for (OwnerId o = 0; o <= kOwners; ++o) {
    EXPECT_EQ(cache.CountOwnerLines(o), reference.CountOwnerLines(o));
    for (std::uint32_t s = 0; s < sets; ++s) {
      EXPECT_EQ(cache.OwnerLinesInSet(s, o), reference.OwnerLinesInSet(s, o))
          << "set " << s << " owner " << o;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheDifferentialTest,
                         ::testing::Combine(::testing::Values(1, 4, 64),
                                            ::testing::Values(1, 2, 8, 15,
                                                              16)));

}  // namespace
}  // namespace sds::sim
