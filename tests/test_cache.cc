// Unit and property tests for the direct-mapped cache model.
#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

#include "sim/cache.h"

namespace l96::sim {
namespace {

DirectMappedCache make_cache(std::uint32_t size = 8 * 1024,
                             WritePolicy wp = WritePolicy::kWriteThrough) {
  return DirectMappedCache(DirectMappedCache::Config{
      .name = "t", .size_bytes = size, .block_bytes = 32, .write_policy = wp});
}

TEST(Cache, GeometryValidation) {
  EXPECT_THROW(make_cache(3000), std::invalid_argument);
  EXPECT_NO_THROW(make_cache(4096));
  DirectMappedCache::Config bad;
  bad.block_bytes = 0;
  EXPECT_THROW(DirectMappedCache c(bad), std::invalid_argument);
  DirectMappedCache::Config small;
  small.size_bytes = 16;
  small.block_bytes = 32;
  EXPECT_THROW(DirectMappedCache c(small), std::invalid_argument);
}

TEST(Cache, NumLines) {
  auto c = make_cache(8 * 1024);
  EXPECT_EQ(c.num_lines(), 256u);
  EXPECT_EQ(c.block_bytes(), 32u);
}

TEST(Cache, ColdMissThenHit) {
  auto c = make_cache();
  auto r = c.read(0x1000);
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.replacement_miss);
  r = c.read(0x1004);  // same block
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(c.stats().accesses, 2u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, ReplacementMissClassification) {
  auto c = make_cache(8 * 1024);
  c.read(0x0000);            // cold
  c.read(0x0000 + 8 * 1024); // aliases line 0: cold (never seen)
  auto r = c.read(0x0000);   // evicted earlier, seen before: replacement
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.replacement_miss);
  EXPECT_EQ(c.stats().repl_misses, 1u);
  EXPECT_EQ(c.stats().cold_misses(), 2u);
}

TEST(Cache, DirectMappedConflict) {
  auto c = make_cache(4096);
  // Two addresses 4096 apart share a line.
  EXPECT_EQ(c.line_index(0x100), c.line_index(0x100 + 4096));
  c.read(0x100);
  c.read(0x100 + 4096);
  EXPECT_FALSE(c.contains(0x100));
  EXPECT_TRUE(c.contains(0x100 + 4096));
}

TEST(Cache, WriteThroughNoAllocateOnWriteMiss) {
  auto c = make_cache();
  auto r = c.write(0x2000);
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(c.contains(0x2000));  // no allocation
  // A later read miss on it is COLD, not replacement.
  r = c.read(0x2000);
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.replacement_miss);
}

TEST(Cache, WriteThroughWriteHitKeepsLine) {
  auto c = make_cache();
  c.read(0x2000);
  auto r = c.write(0x2010);
  EXPECT_TRUE(r.hit);
  EXPECT_TRUE(c.contains(0x2000));
}

TEST(Cache, WriteBackAllocatesAndDirties) {
  auto c = make_cache(4096, WritePolicy::kWriteBack);
  auto r = c.write(0x300);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(c.contains(0x300));
  // Evicting the dirty line produces a writeback.
  r = c.read(0x300 + 4096);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.evicted_block, 0x300u - 0x300 % 32);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionNoWriteback) {
  auto c = make_cache(4096, WritePolicy::kWriteBack);
  c.read(0x300);
  auto r = c.read(0x300 + 4096);
  EXPECT_FALSE(r.writeback);
}

TEST(Cache, InstallDoesNotTouchStats) {
  auto c = make_cache();
  c.install(0x4000);
  EXPECT_EQ(c.stats().accesses, 0u);
  EXPECT_TRUE(c.contains(0x4000));
  // But it marks the block seen: a miss after eviction is replacement.
  c.read(0x4000 + 8 * 1024);
  auto r = c.read(0x4000);
  EXPECT_TRUE(r.replacement_miss);
}

TEST(Cache, ProbeCountsButDoesNotAllocate) {
  auto c = make_cache();
  EXPECT_FALSE(c.probe(0x5000));
  EXPECT_EQ(c.stats().accesses, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_FALSE(c.contains(0x5000));
  c.read(0x5000);
  EXPECT_TRUE(c.probe(0x5000));
}

TEST(Cache, FlushKeepsHistoryResetForgets) {
  auto c = make_cache();
  c.read(0x100);
  c.flush();
  EXPECT_FALSE(c.contains(0x100));
  auto r = c.read(0x100);
  EXPECT_TRUE(r.replacement_miss);  // history survived the flush

  c.reset_cold();
  r = c.read(0x100);
  EXPECT_FALSE(r.replacement_miss);  // history gone
  EXPECT_EQ(c.stats().accesses, 1u);
}

TEST(Cache, ResetColdVersusResetStats) {
  // reset_cold() (Table 6 start state) forgets residency, history and
  // stats; reset_stats() (Table 7: between warm-up and the measured pass)
  // zeroes counters ONLY, so residency survives and post-reset misses on
  // previously-seen blocks still classify as replacement misses.
  auto c = make_cache();
  c.read(0x100);
  c.read(0x200);
  c.invalidate(0x200);

  c.reset_stats();
  EXPECT_EQ(c.stats().accesses, 0u);
  EXPECT_EQ(c.stats().misses, 0u);
  EXPECT_TRUE(c.contains(0x100));          // residency kept
  auto r = c.read(0x100);
  EXPECT_TRUE(r.hit);
  r = c.read(0x200);
  EXPECT_TRUE(r.replacement_miss);         // ever-seen history kept
  EXPECT_EQ(c.stats().repl_misses, 1u);

  c.reset_cold();
  EXPECT_EQ(c.stats().accesses, 0u);
  EXPECT_FALSE(c.contains(0x100));         // residency gone
  r = c.read(0x200);
  EXPECT_FALSE(r.replacement_miss);        // history gone: cold miss again
  EXPECT_EQ(c.stats().cold_misses(), 1u);
}

TEST(Cache, EvictionReportsVictimBlock) {
  // The profiler's conflict matrix depends on the access result naming any
  // displaced block, whether or not the miss was a replacement miss.
  auto c = make_cache();
  c.read(0x100);
  auto r = c.read(0x100 + 8 * 1024);  // same set, different block
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.replacement_miss);   // never seen before -> cold miss
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_block, 0x100u & ~31ull);
  // A miss into an empty line displaces nothing.
  r = c.read(0x4000);
  EXPECT_FALSE(r.evicted);
}

TEST(Cache, InvalidateLine) {
  auto c = make_cache();
  c.read(0x100);
  c.invalidate_line(c.line_index(0x100));
  EXPECT_FALSE(c.contains(0x100));
  c.read(0x200);
  c.invalidate(0x200);
  EXPECT_FALSE(c.contains(0x200));
  // Invalidating an address whose line holds a different block is a no-op.
  c.read(0x300);
  c.invalidate(0x300 + 8 * 1024);
  EXPECT_TRUE(c.contains(0x300));
}

// Property: against a reference model, hit/miss decisions agree for random
// address streams, and the stats identities hold.
class CacheProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheProperty, MatchesReferenceModel) {
  const std::uint32_t size = GetParam();
  auto c = make_cache(size);
  const std::uint32_t lines = size / 32;

  std::unordered_map<std::uint32_t, Addr> ref(lines);
  std::mt19937_64 rng(42 + size);

  for (int i = 0; i < 20000; ++i) {
    const Addr a = (rng() % (1 << 20)) & ~0x3ull;
    const Addr block = a / 32 * 32;
    const std::uint32_t line = static_cast<std::uint32_t>((a / 32) % lines);
    const bool expect_hit = ref.contains(line) && ref[line] == block;
    const auto r = c.read(a);
    ASSERT_EQ(r.hit, expect_hit) << "address " << a << " iteration " << i;
    ref[line] = block;
  }
  const auto& s = c.stats();
  EXPECT_EQ(s.accesses, 20000u);
  EXPECT_EQ(s.hits() + s.misses, s.accesses);
  EXPECT_EQ(s.cold_misses() + s.repl_misses, s.misses);
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheProperty,
                         ::testing::Values(1024u, 4096u, 8192u, 65536u));

// Property: repl misses never exceed total misses minus distinct blocks' first
// touches.
TEST(CacheProperty, ColdMissesEqualDistinctBlocks) {
  auto c = make_cache(1024);
  std::mt19937_64 rng(7);
  std::unordered_set<Addr> distinct;
  for (int i = 0; i < 5000; ++i) {
    const Addr a = (rng() % (1 << 16)) & ~0x3ull;
    distinct.insert(a / 32);
    c.read(a);
  }
  EXPECT_EQ(c.stats().cold_misses(), distinct.size());
}

}  // namespace
}  // namespace l96::sim
