// Tests for the 4-deep write-merging write buffer.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "sim/memsys.h"
#include "sim/write_buffer.h"

namespace l96::sim {
namespace {

/// A 4-deep buffer whose store() and drain() record each retired block.
struct Fixture {
  struct Recording : WriteBuffer {
    explicit Recording(std::vector<Addr>& r)
        : WriteBuffer(Config{.depth = 4, .block_bytes = 32}), retired(r) {}
    StoreResult store(Addr a) {
      const StoreResult r = WriteBuffer::store(a);
      if (r.forced_retire) retired.push_back(r.retired);
      return r;
    }
    void drain() {
      WriteBuffer::drain([this](Addr a) { retired.push_back(a); });
    }
    std::vector<Addr>& retired;
  };
  std::vector<Addr> retired;
  Recording wb{retired};
};

// A buffer of no entries has nowhere to put a store's block: it is refused
// at construction, as a bad cache geometry is.
TEST(WriteBuffer, ZeroDepthIsRejected) {
  EXPECT_THROW(WriteBuffer(WriteBuffer::Config{.depth = 0}),
               std::invalid_argument);
  EXPECT_THROW(MemorySystem(MemorySystem::Config{.wbuf_depth = 0}),
               std::invalid_argument);
}

TEST(WriteBuffer, AllocatesNewEntries) {
  Fixture f;
  auto r = f.wb.store(0x100);
  EXPECT_FALSE(r.merged);
  EXPECT_FALSE(r.forced_retire);
  EXPECT_EQ(f.wb.pending(), 1u);
  EXPECT_EQ(f.wb.allocations(), 1u);
}

TEST(WriteBuffer, MergesSameBlock) {
  Fixture f;
  f.wb.store(0x100);
  auto r = f.wb.store(0x108);  // same 32-byte block
  EXPECT_TRUE(r.merged);
  EXPECT_EQ(f.wb.pending(), 1u);
  EXPECT_EQ(f.wb.merges(), 1u);
  EXPECT_EQ(f.wb.allocations(), 1u);
}

TEST(WriteBuffer, DistinctBlocksDoNotMerge) {
  Fixture f;
  f.wb.store(0x100);
  auto r = f.wb.store(0x120);  // next block
  EXPECT_FALSE(r.merged);
  EXPECT_EQ(f.wb.pending(), 2u);
}

TEST(WriteBuffer, ForcedRetireIsFifo) {
  Fixture f;
  for (Addr a : {0x000, 0x020, 0x040, 0x060}) f.wb.store(a);
  EXPECT_EQ(f.wb.pending(), 4u);
  auto r = f.wb.store(0x080);
  EXPECT_TRUE(r.forced_retire);
  ASSERT_EQ(f.retired.size(), 1u);
  EXPECT_EQ(f.retired[0], 0x000u);  // oldest first
  EXPECT_EQ(f.wb.pending(), 4u);
  EXPECT_EQ(f.wb.forced_retires(), 1u);
}

TEST(WriteBuffer, MergeIntoOldEntryAvoidsRetire) {
  Fixture f;
  for (Addr a : {0x000, 0x020, 0x040, 0x060}) f.wb.store(a);
  auto r = f.wb.store(0x004);  // merges into the first entry
  EXPECT_TRUE(r.merged);
  EXPECT_TRUE(f.retired.empty());
}

TEST(WriteBuffer, DrainRetiresInOrder) {
  Fixture f;
  for (Addr a : {0x200, 0x240, 0x280}) f.wb.store(a);
  f.wb.drain();
  EXPECT_EQ(f.wb.pending(), 0u);
  ASSERT_EQ(f.retired.size(), 3u);
  EXPECT_EQ(f.retired[0], 0x200u);
  EXPECT_EQ(f.retired[1], 0x240u);
  EXPECT_EQ(f.retired[2], 0x280u);
}

TEST(WriteBuffer, ResetClearsEverything) {
  Fixture f;
  f.wb.store(0x100);
  f.wb.reset();
  EXPECT_EQ(f.wb.pending(), 0u);
  EXPECT_EQ(f.wb.stores(), 0u);
  f.wb.drain();
  EXPECT_TRUE(f.retired.empty());
}

TEST(WriteBuffer, ResetStatsKeepsEntries) {
  Fixture f;
  f.wb.store(0x100);
  f.wb.reset_stats();
  EXPECT_EQ(f.wb.stores(), 0u);
  EXPECT_EQ(f.wb.pending(), 1u);
  // The retained entry still merges.
  auto r = f.wb.store(0x104);
  EXPECT_TRUE(r.merged);
}

// Property: the set of retired blocks equals the set of distinct dirtied
// blocks regardless of merging.
TEST(WriteBufferProperty, MergingPreservesDirtySet) {
  Fixture f;
  std::vector<Addr> addrs;
  std::uint64_t seed = 99;
  for (int i = 0; i < 1000; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    addrs.push_back((seed >> 20) % 4096);
  }
  std::set<Addr> expected;
  for (Addr a : addrs) {
    expected.insert(a / 32 * 32);
    f.wb.store(a);
  }
  f.wb.drain();
  std::set<Addr> got(f.retired.begin(), f.retired.end());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(f.wb.stores(), 1000u);
  EXPECT_EQ(f.wb.merges() + f.wb.allocations(), 1000u);
}

}  // namespace
}  // namespace l96::sim
