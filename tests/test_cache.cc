// Unit and property tests for the direct-mapped cache model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

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
  c.invalidate_line(c.line_index(0x200));

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
  // Only the named line is dropped; its neighbour stays resident.
  c.read(0x200);
  c.read(0x220);
  c.invalidate_line(c.line_index(0x200));
  EXPECT_FALSE(c.contains(0x200));
  EXPECT_TRUE(c.contains(0x220));
  // The dropped block was seen: refetching it is a replacement miss.
  EXPECT_TRUE(c.read(0x200).replacement_miss);
}

// Reference model: the paper's direct-mapped cache written as plainly as
// possible (one optional tag per line, a dirty flag, a set of every block
// that was ever resident), against which the production model is checked.
class RefCache {
 public:
  RefCache(std::uint32_t size, WritePolicy wp)
      : lines_(size / 32), wp_(wp), tag_(lines_), dirty_(lines_) {}

  DirectMappedCache::AccessResult access(Addr a, bool is_write) {
    ++stats_.accesses;
    const Addr block = a / 32 * 32;
    const std::uint32_t line = index(a);
    DirectMappedCache::AccessResult r;
    if (tag_[line] == block) {
      r.hit = true;
      if (is_write && wp_ == WritePolicy::kWriteBack) dirty_[line] = true;
      return r;
    }
    ++stats_.misses;
    r.replacement_miss = seen_.contains(block);
    if (r.replacement_miss) ++stats_.repl_misses;
    if (is_write && wp_ == WritePolicy::kWriteThrough) return r;
    if (tag_[line]) {
      r.evicted = true;
      r.evicted_block = *tag_[line];
      r.writeback = dirty_[line];
      if (r.writeback) ++stats_.writebacks;
    }
    tag_[line] = block;
    dirty_[line] = is_write;
    seen_.insert(block);
    return r;
  }

  bool probe(Addr a) {
    ++stats_.accesses;
    if (contains(a)) return true;
    ++stats_.misses;
    if (seen_.contains(a / 32 * 32)) ++stats_.repl_misses;
    return false;
  }

  bool contains(Addr a) const { return tag_[index(a)] == a / 32 * 32; }
  void invalidate_line(std::uint32_t i) { tag_[i].reset(); }
  void flush() {
    for (auto& t : tag_) t.reset();
  }
  void reset_cold() {
    flush();
    seen_.clear();
    stats_.reset();
  }
  void reset_stats() { stats_.reset(); }
  const CacheStats& stats() const { return stats_; }
  std::uint32_t index(Addr a) const {
    return static_cast<std::uint32_t>((a / 32) % lines_);
  }

 private:
  std::uint32_t lines_;
  WritePolicy wp_;
  std::vector<std::optional<Addr>> tag_;
  std::vector<bool> dirty_;
  std::unordered_set<Addr> seen_;
  CacheStats stats_;
};

std::array<std::uint64_t, 4> counters(const CacheStats& s) {
  return {s.accesses, s.misses, s.repl_misses, s.writebacks};
}

// Property: for random mixes of every operation, under both write policies,
// each access result, each residency answer and the statistics agree with
// the reference model.  Addresses come from three regions four cache sizes
// wide (so lines alias and blocks come back after eviction), one of them at
// address 0 and one at the top of the address space.
class CacheProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheProperty, MatchesReferenceModel) {
  const std::uint32_t size = GetParam();
  for (const WritePolicy wp :
       {WritePolicy::kWriteThrough, WritePolicy::kWriteBack}) {
    SCOPED_TRACE(wp == WritePolicy::kWriteBack ? "write-back"
                                               : "write-through");
    auto c = make_cache(size, wp);
    RefCache ref(size, wp);
    std::mt19937_64 rng(42 + size);
    const Addr bases[] = {0, 0x1'0000'0000ull, ~Addr{0} - 4ull * size + 1};
    // At most 512 lines, spread over the whole index range, so that even
    // the 2 MB geometry sees its lines alias and its blocks evicted.
    const std::uint32_t lines = size / 32;
    const std::uint32_t touched = std::min(lines, 512u);
    const std::uint32_t stride = lines / touched;
    std::vector<Addr> recent(64, 0);
    std::uint64_t reads = 0, writes = 0, probes = 0, resets = 0;
    std::uint64_t hits = 0, repl = 0, evictions = 0, writebacks = 0;
    auto tally = [&](const DirectMappedCache::AccessResult& r) {
      hits += r.hit;
      repl += r.replacement_miss;
      evictions += r.evicted;
      writebacks += r.writeback;
    };

    for (int i = 0; i < 20000; ++i) {
      // Half the accesses revisit a recent address, so even the 2 MB
      // geometry sees hits and dirty evictions.
      Addr a = recent[rng() % recent.size()];
      if (rng() % 2 == 0) {
        const Addr line = rng() % touched * stride;
        a = bases[rng() % 3] + rng() % 4 * size + line * 32 + rng() % 8 * 4;
        recent[rng() % recent.size()] = a;
      }
      const std::uint64_t op = rng() % 1000;
      if (op < 400) {
        const auto r = c.read(a);
        const auto e = ref.access(a, false);
        ASSERT_EQ(r.hit, e.hit) << "read " << a << " iteration " << i;
        ASSERT_EQ(r.replacement_miss, e.replacement_miss) << i;
        ASSERT_EQ(r.evicted, e.evicted) << i;
        ASSERT_EQ(r.evicted_block, e.evicted_block) << i;
        ASSERT_EQ(r.writeback, e.writeback) << i;
        tally(r);
        ++reads;
      } else if (op < 700) {
        const auto r = c.write(a);
        const auto e = ref.access(a, true);
        ASSERT_EQ(r.hit, e.hit) << "write " << a << " iteration " << i;
        ASSERT_EQ(r.replacement_miss, e.replacement_miss) << i;
        ASSERT_EQ(r.evicted, e.evicted) << i;
        ASSERT_EQ(r.evicted_block, e.evicted_block) << i;
        ASSERT_EQ(r.writeback, e.writeback) << i;
        tally(r);
        ++writes;
      } else if (op < 850) {
        ASSERT_EQ(c.probe(a), ref.probe(a)) << "probe " << a << " " << i;
        ++probes;
      } else if (op < 970) {
        c.invalidate_line(c.line_index(a));
        ref.invalidate_line(ref.index(a));
      } else if (op < 985) {
        c.flush();
        ref.flush();
        ++resets;
      } else if (op < 999) {
        c.reset_stats();
        ref.reset_stats();
        ++resets;
      } else {
        c.reset_cold();
        ref.reset_cold();
        ++resets;
      }
      ASSERT_EQ(c.contains(a), ref.contains(a)) << "address " << a << " " << i;
      ASSERT_EQ(c.line_index(a), ref.index(a));
      ASSERT_EQ(counters(c.stats()), counters(ref.stats())) << i;
    }
    const auto& s = c.stats();
    EXPECT_EQ(s.hits() + s.misses, s.accesses);
    EXPECT_EQ(s.cold_misses() + s.repl_misses, s.misses);
    // The mix really exercised every operation.
    EXPECT_GT(reads, 1000u);
    EXPECT_GT(writes, 1000u);
    EXPECT_GT(probes, 1000u);
    EXPECT_GT(resets, 100u);
    EXPECT_GT(hits, 100u);
    EXPECT_GT(repl, 100u);
    EXPECT_GT(evictions, 100u);
    if (wp == WritePolicy::kWriteBack) {
      EXPECT_GT(writebacks, 100u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheProperty,
                         ::testing::Values(1024u, 4096u, 8192u, 65536u,
                                           2u * 1024 * 1024));

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
