// Tests for the map manager: one-entry cache, lazy non-empty-bucket list.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "xkernel/map.h"

namespace l96::xk {
namespace {

MapKey k(std::uint64_t v) { return MapKey{.hi = v * 7919, .lo = v}; }

class MapTest : public ::testing::Test {
 protected:
  SimAlloc arena;
};

TEST_F(MapTest, RejectsNonPowerOfTwo) {
  EXPECT_THROW((Map<int>(arena, 10)), std::invalid_argument);
  EXPECT_THROW((Map<int>(arena, 0)), std::invalid_argument);
}

TEST_F(MapTest, BindResolveUnbind) {
  Map<int> m(arena, 16);
  m.bind(k(1), 100);
  auto v = m.resolve(k(1));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 100);
  EXPECT_FALSE(m.resolve(k(2)).has_value());
  EXPECT_TRUE(m.unbind(k(1)));
  EXPECT_FALSE(m.unbind(k(1)));
  EXPECT_FALSE(m.resolve(k(1)).has_value());
}

TEST_F(MapTest, BindOverwrites) {
  Map<int> m(arena, 16);
  m.bind(k(1), 1);
  m.bind(k(1), 2);
  EXPECT_EQ(*m.resolve(k(1)), 2);
  EXPECT_EQ(m.size(), 1u);
}

TEST_F(MapTest, OneEntryCacheHitsOnRepeat) {
  Map<int> m(arena, 16);
  m.bind(k(1), 1);
  m.bind(k(2), 2);
  m.resolve(k(1));
  const auto hits_before = m.stats().cache_hits;
  m.resolve(k(1));
  m.resolve(k(1));
  EXPECT_EQ(m.stats().cache_hits, hits_before + 2);
}

TEST_F(MapTest, CacheInvalidatedByUnbind) {
  Map<int> m(arena, 16);
  m.bind(k(1), 1);
  m.resolve(k(1));  // caches the entry
  m.unbind(k(1));
  EXPECT_FALSE(m.resolve(k(1)).has_value());  // must not hit a stale cache
}

TEST_F(MapTest, RebindAfterUnbindNeverServesStaleValue) {
  // The dangerous sequence: resolve caches entry E for key K, K is unbound
  // (E freed), K is re-bound to a NEW entry.  The cache must have been
  // cleared at unbind time — a dangling E here would be use-after-free.
  Map<int> m(arena, 16);
  m.bind(k(1), 10);
  ASSERT_EQ(*m.resolve(k(1)), 10);  // cache now points at the entry
  ASSERT_TRUE(m.unbind(k(1)));
  m.bind(k(1), 20);
  auto v = m.resolve(k(1));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 20);
  // And the fresh entry is itself cached now.
  const auto hits = m.stats().cache_hits;
  EXPECT_EQ(*m.resolve(k(1)), 20);
  EXPECT_EQ(m.stats().cache_hits, hits + 1);
}

TEST_F(MapTest, OverwriteBindUpdatesValueSeenThroughCache) {
  // bind() of an existing key overwrites the entry in place; a cached
  // pointer to that entry must observe the new value.
  Map<int> m(arena, 16);
  m.bind(k(1), 1);
  m.resolve(k(1));  // cache points at the entry
  m.bind(k(1), 2);  // in-place overwrite
  auto v = m.resolve(k(1));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 2);
}

TEST_F(MapTest, UnbindOfOtherKeyKeepsCacheValid) {
  Map<int> m(arena, 16);
  m.bind(k(1), 1);
  m.bind(k(2), 2);
  m.resolve(k(1));  // cache -> k(1)'s entry
  ASSERT_TRUE(m.unbind(k(2)));
  const auto hits = m.stats().cache_hits;
  EXPECT_EQ(*m.resolve(k(1)), 1);
  EXPECT_EQ(m.stats().cache_hits, hits + 1);  // still a cache hit
}

TEST_F(MapTest, UnbindRebindChurnNeverGoesStale) {
  // Packet-train pattern with connection churn: repeated resolve/unbind/
  // rebind of the same key must always see the current binding.
  Map<int> m(arena, 16);
  for (int round = 0; round < 100; ++round) {
    m.bind(k(7), round);
    ASSERT_EQ(*m.resolve(k(7)), round) << round;
    ASSERT_EQ(*m.resolve(k(7)), round) << round;  // cached path
    ASSERT_TRUE(m.unbind(k(7)));
    ASSERT_FALSE(m.resolve(k(7)).has_value()) << round;
  }
  EXPECT_EQ(m.size(), 0u);
}

TEST_F(MapTest, CacheDisabled) {
  Map<int> m(arena, 16, /*one_entry_cache=*/false);
  m.bind(k(1), 1);
  m.resolve(k(1));
  m.resolve(k(1));
  EXPECT_EQ(m.stats().cache_hits, 0u);
}

TEST_F(MapTest, TouchedAddressesReported) {
  Map<int> m(arena, 16);
  m.bind(k(1), 1);
  std::vector<SimAddr> touched;
  m.resolve(k(1), &touched);
  EXPECT_FALSE(touched.empty());
  // Second lookup hits the one-entry cache: exactly one probe address.
  touched.clear();
  m.resolve(k(1), &touched);
  EXPECT_EQ(touched.size(), 1u);
}

TEST_F(MapTest, TraversalVisitsAllLive) {
  Map<int> m(arena, 64);
  std::set<std::uint64_t> expect;
  for (std::uint64_t i = 0; i < 20; ++i) {
    m.bind(k(i), static_cast<int>(i));
    expect.insert(i);
  }
  std::set<std::uint64_t> seen;
  m.for_each([&](const MapKey& key, int&) { seen.insert(key.lo); });
  EXPECT_EQ(seen, expect);
}

TEST_F(MapTest, LazyUnlinkCollectsEmptyBuckets) {
  Map<int> m(arena, 64);
  for (std::uint64_t i = 0; i < 16; ++i) m.bind(k(i), 1);
  const std::size_t full_list = m.list_length();
  // Remove most elements: the list does NOT shrink yet (lazy).
  for (std::uint64_t i = 0; i < 14; ++i) m.unbind(k(i));
  EXPECT_EQ(m.list_length(), full_list);
  // Traversal cleans it up.
  m.for_each([](const MapKey&, int&) {});
  EXPECT_LE(m.list_length(), 2u + 1u);
  EXPECT_GT(m.stats().lazy_unlinks, 0u);
}

TEST_F(MapTest, RebindAfterLazyEmptyDoesNotDuplicateListNode) {
  Map<int> m(arena, 16);
  m.bind(k(1), 1);
  m.unbind(k(1));       // bucket empty but still on the list
  m.bind(k(1), 2);      // must not be added twice
  std::size_t visits = 0;
  m.for_each([&](const MapKey&, int&) { ++visits; });
  EXPECT_EQ(visits, 1u);
  m.for_each([&](const MapKey&, int&) {});  // stable after cleanup
  EXPECT_EQ(m.list_length(), 1u);
}

TEST_F(MapTest, TraversalCostTracksOccupancyNotTableSize) {
  // The paper: traversal cost is proportional to the non-empty-bucket list,
  // not the bucket count (the whole point of the lazy list).
  Map<int> big(arena, 1024);
  for (std::uint64_t i = 0; i < 8; ++i) big.bind(k(i), 1);
  big.for_each([](const MapKey&, int&) {});
  const auto walked = big.stats().buckets_walked;
  EXPECT_LE(walked, 8u);  // far fewer than 1024 buckets
}

TEST_F(MapTest, ChainCollisionsResolveCorrectly) {
  Map<int> m(arena, 2);  // force heavy chaining
  for (std::uint64_t i = 0; i < 32; ++i) m.bind(k(i), static_cast<int>(i));
  for (std::uint64_t i = 0; i < 32; ++i) {
    auto v = m.resolve(k(i));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, static_cast<int>(i));
  }
  EXPECT_EQ(m.size(), 32u);
}

// Property test: random operation sequences agree with std::map.
TEST_F(MapTest, FindLeavesStatsAndCacheUntouched) {
  Map<int> m(arena, 16);
  m.bind(k(1), 10);
  m.bind(k(2), 20);
  ASSERT_EQ(*m.resolve(k(1)), 10);  // the one-entry cache now holds k(1)
  const MapStats before = m.stats();
  const SimAddr slot = m.cache_slot_sim();

  EXPECT_EQ(m.find(k(2)), std::optional<int>(20));
  EXPECT_EQ(m.find(k(1)), std::optional<int>(10));
  EXPECT_EQ(m.find(k(3)), std::nullopt);

  const MapStats& after = m.stats();
  EXPECT_EQ(after.lookups, before.lookups);
  EXPECT_EQ(after.cache_hits, before.cache_hits);
  EXPECT_EQ(after.binds, before.binds);
  EXPECT_EQ(after.unbinds, before.unbinds);
  EXPECT_EQ(after.traversals, before.traversals);
  EXPECT_EQ(m.cache_slot_sim(), slot);
  // The cache still serves k(1): resolve counts a cache hit.
  ASSERT_EQ(*m.resolve(k(1)), 10);
  EXPECT_EQ(m.stats().cache_hits, before.cache_hits + 1);
}

class MapFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MapFuzz, AgreesWithReference) {
  SimAlloc arena;
  Map<int> m(arena, 32);
  std::map<std::uint64_t, int> ref;
  std::uint64_t seed = GetParam();
  auto rnd = [&]() {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  for (int step = 0; step < 5000; ++step) {
    const std::uint64_t id = rnd() % 64;
    switch (rnd() % 4) {
      case 0:
        m.bind(k(id), static_cast<int>(id));
        ref[id] = static_cast<int>(id);
        break;
      case 1: {
        const bool a = m.unbind(k(id));
        const bool b = ref.erase(id) > 0;
        ASSERT_EQ(a, b);
        break;
      }
      case 2: {
        const auto found = m.find(k(id));
        auto v = m.resolve(k(id));
        auto it = ref.find(id);
        ASSERT_EQ(found, v);
        ASSERT_EQ(v.has_value(), it != ref.end());
        if (v.has_value()) {
          ASSERT_EQ(*v, it->second);
        }
        break;
      }
      case 3: {
        std::size_t n = 0;
        m.for_each([&](const MapKey&, int&) { ++n; });
        ASSERT_EQ(n, ref.size());
        break;
      }
    }
    ASSERT_EQ(m.size(), ref.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapFuzz,
                         ::testing::Values(1ull, 42ull, 0xDEADBEEFull,
                                           977ull, 31415926ull));

}  // namespace
}  // namespace l96::xk
