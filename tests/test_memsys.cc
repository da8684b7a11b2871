// Tests for the composed DEC 3000/600 memory hierarchy.
#include <gtest/gtest.h>

#include "sim/memsys.h"

namespace l96::sim {
namespace {

MemorySystem::Config small_cfg() {
  MemorySystem::Config c;
  c.icache_bytes = 1024;
  c.dcache_bytes = 1024;
  c.bcache_bytes = 64 * 1024;
  c.b_hit_cycles = 10;
  c.b_hit_seq_cycles = 5;
  c.dram_cycles = 26;
  return c;
}

TEST(MemSys, IfetchHitIsFree) {
  MemorySystem m(small_cfg());
  m.ifetch(0x1000);  // miss
  EXPECT_EQ(m.ifetch(0x1004), 0u);  // same block: hit
  EXPECT_EQ(m.icache().stats().accesses, 2u);
  EXPECT_EQ(m.icache().stats().misses, 1u);
}

TEST(MemSys, IfetchMissCostsDramWhenBcacheCold) {
  MemorySystem m(small_cfg());
  EXPECT_EQ(m.ifetch(0x1000), 26u);  // b-cache cold -> DRAM
}

TEST(MemSys, IfetchMissCostsBhitWhenBcacheWarm) {
  MemorySystem m(small_cfg());
  m.ifetch(0x1000);                      // warms b-cache
  m.scrub_primary(1.0, 1.0, 1);
  EXPECT_EQ(m.ifetch(0x1000), 10u);      // b-hit, non-sequential
}

TEST(MemSys, SequentialFillDiscount) {
  MemorySystem m(small_cfg());
  // Warm the b-cache with two adjacent blocks.
  m.ifetch(0x2000);
  m.ifetch(0x2020);
  m.scrub_primary(1.0, 1.0, 1);
  EXPECT_EQ(m.ifetch(0x2000), 10u);  // first miss: full b-hit cost
  EXPECT_EQ(m.ifetch(0x2020), 5u);   // sequential successor: discounted
}

TEST(MemSys, PrefetchProbesBcacheButDoesNotInstall) {
  MemorySystem m(small_cfg());
  m.ifetch(0x3000);
  // The prefetch of 0x3020 must have touched the b-cache (traffic) without
  // making 0x3020 an i-cache hit.
  EXPECT_EQ(m.bcache_traffic().from_ifetch, 2u);
  EXPECT_GT(m.ifetch(0x3020), 0u);  // still an i-cache miss
}

TEST(MemSys, LoadMissGoesThroughBcache) {
  MemorySystem m(small_cfg());
  EXPECT_EQ(m.load(0x4000), 26u);  // cold: DRAM
  EXPECT_EQ(m.load(0x4000), 0u);   // d-cache hit
  EXPECT_EQ(m.bcache_traffic().from_data, 1u);
}

TEST(MemSys, StoreStallsOnlyOnForcedRetire) {
  MemorySystem m(small_cfg());
  EXPECT_EQ(m.store(0x100), 0u);
  EXPECT_EQ(m.store(0x120), 0u);
  EXPECT_EQ(m.store(0x140), 0u);
  EXPECT_EQ(m.store(0x160), 0u);
  EXPECT_GT(m.store(0x180), 0u);  // buffer full: oldest retires
  EXPECT_EQ(m.bcache_traffic().from_writes, 1u);
}

TEST(MemSys, DrainWritesFlushesBuffer) {
  MemorySystem m(small_cfg());
  m.store(0x100);
  m.store(0x140);
  m.drain_writes();
  EXPECT_EQ(m.wbuf().pending(), 0u);
  EXPECT_EQ(m.bcache_traffic().from_writes, 2u);
}

TEST(MemSys, ScrubFullFlushesPrimaries) {
  MemorySystem m(small_cfg());
  m.ifetch(0x1000);
  m.load(0x2000);
  m.scrub_primary(1.0, 1.0, 1);
  // Both caches invalid: next accesses miss again.
  EXPECT_GT(m.ifetch(0x1000), 0u);
  EXPECT_GT(m.load(0x2000), 0u);
}

TEST(MemSys, ScrubPartialIsDeterministic) {
  auto run = [&](std::uint64_t seed) {
    MemorySystem m(small_cfg());
    for (Addr a = 0; a < 1024; a += 32) m.ifetch(0x10000 + a);
    m.scrub_primary(0.5, 0.5, seed);
    int survivors = 0;
    for (Addr a = 0; a < 1024; a += 32) {
      if (m.icache().contains(0x10000 + a)) ++survivors;
    }
    return survivors;
  };
  EXPECT_EQ(run(123), run(123));
  // ~half the lines survive.
  const int s = run(5);
  EXPECT_GT(s, 4);
  EXPECT_LT(s, 28);
}

TEST(MemSys, ScrubSeparateFractions) {
  MemorySystem m(small_cfg());
  for (Addr a = 0; a < 1024; a += 32) {
    m.ifetch(0x10000 + a);
    m.load(0x20000 + a);
  }
  m.scrub_primary(1.0, 0.0, 7);
  int i_surv = 0, d_surv = 0;
  for (Addr a = 0; a < 1024; a += 32) {
    if (m.icache().contains(0x10000 + a)) ++i_surv;
    if (m.dcache().contains(0x20000 + a)) ++d_surv;
  }
  EXPECT_EQ(i_surv, 0);
  EXPECT_EQ(d_surv, 32);
}

TEST(MemSys, ResetStatsKeepsContents) {
  MemorySystem m(small_cfg());
  m.ifetch(0x1000);
  m.reset_stats();
  EXPECT_EQ(m.icache().stats().accesses, 0u);
  EXPECT_EQ(m.ifetch(0x1000), 0u);  // still resident
}

TEST(MemSys, StallAccounting) {
  MemorySystem m(small_cfg());
  m.ifetch(0x1000);
  m.load(0x2000);
  EXPECT_EQ(m.stalls().ifetch_stall_cycles, 26u);
  EXPECT_EQ(m.stalls().load_stall_cycles, 26u);
  EXPECT_EQ(m.stalls().total(), 52u);
}

void expect_same_counters(const DirectMappedCache& a,
                          const DirectMappedCache& b) {
  EXPECT_EQ(a.stats().accesses, b.stats().accesses) << a.name();
  EXPECT_EQ(a.stats().misses, b.stats().misses) << a.name();
  EXPECT_EQ(a.stats().repl_misses, b.stats().repl_misses) << a.name();
  EXPECT_EQ(a.stats().writebacks, b.stats().writebacks) << a.name();
  EXPECT_EQ(a.evictions_since_cold(), b.evictions_since_cold()) << a.name();
}

// save(), more traffic, restore(): every line, ever-seen set, counter and
// buffered write is back, into a checkpoint reused across saves.  With
// partial scrubs the primaries refill more lines than they have, so save()
// walks every line instead of the fill list.
TEST(MemSysCheckpoint, RestoreReturnsEveryLineAndCounter) {
  for (const double scrub : {0.0, 0.5}) {
    SCOPED_TRACE("scrub " + std::to_string(scrub));
    const auto traffic = [scrub](MemorySystem& m, Addr base) {
      for (std::uint64_t i = 0; i < 96; ++i) {
        m.ifetch(base + 32 * i);
        m.load(0x8'0000 + base + 40 * i);
        m.store(0x9'0000 + base + 24 * i);
        if (scrub > 0 && i % 8 == 7) m.scrub_primary(scrub, i);
      }
    };
    MemorySystem m(small_cfg());
    MemorySystem want(small_cfg());
    MemorySystem::Checkpoint c;
    for (const Addr base : {Addr{0}, Addr{0x2000}}) {
      traffic(m, base);
      traffic(want, base);
      m.save(c);
      traffic(m, base + 0x4000);
      m.drain_writes();
      m.restore(c);
      EXPECT_TRUE(m.state() == want.state());
      expect_same_counters(m.icache(), want.icache());
      expect_same_counters(m.dcache(), want.dcache());
      expect_same_counters(m.bcache(), want.bcache());
      EXPECT_EQ(m.wbuf().stores(), want.wbuf().stores());
      EXPECT_EQ(m.wbuf().merges(), want.wbuf().merges());
      EXPECT_EQ(m.wbuf().allocations(), want.wbuf().allocations());
      EXPECT_EQ(m.wbuf().forced_retires(), want.wbuf().forced_retires());
      EXPECT_EQ(m.stalls().total(), want.stalls().total());
      EXPECT_EQ(m.stalls().store_stall_cycles,
                want.stalls().store_stall_cycles);
      EXPECT_EQ(m.bcache_traffic().from_ifetch,
                want.bcache_traffic().from_ifetch);
      EXPECT_EQ(m.bcache_traffic().from_data, want.bcache_traffic().from_data);
      EXPECT_EQ(m.bcache_traffic().from_writes,
                want.bcache_traffic().from_writes);
      // Both go on alike from the restored state.
      traffic(m, base + 0x100);
      traffic(want, base + 0x100);
      EXPECT_TRUE(m.state() == want.state());
      expect_same_counters(m.bcache(), want.bcache());
    }
  }
}

}  // namespace
}  // namespace l96::sim
