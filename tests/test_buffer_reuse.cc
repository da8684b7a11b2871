// Reuse safety of the allocation-free frame path: the recorder-off map
// lookup, recycled frame buffers on the wire and in the LANCE driver,
// recycled message chunks, and the guided Zipf draw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "harness/fleet.h"
#include "net/world.h"
#include "protocols/trace_util.h"

namespace l96 {
namespace {

// --- traced_map_lookup: recorder on vs off ----------------------------------

/// One side of the differential: a map and the context that looks it up.
struct LookupSide {
  explicit LookupSide(bool inline_cache_test) {
    config.inline_map_cache_test = inline_cache_test;
    for (std::uint64_t k = 0; k < 40; ++k) map.bind({.hi = 7, .lo = k}, k * 3);
  }
  xk::SimAlloc arena;
  xk::EventManager events;
  xk::EventPort port{events, 1};
  code::Recorder rec;
  code::CodeRegistry registry;
  code::StackConfig config = code::StackConfig::Std();
  xk::ProtoCtx ctx{arena, port, rec, registry, config};
  xk::Map<std::uint64_t> map{arena, 16};  // 40 keys: chains of 2-3
};

void expect_same_stats(const xk::MapStats& a, const xk::MapStats& b) {
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.binds, b.binds);
  EXPECT_EQ(a.unbinds, b.unbinds);
  EXPECT_EQ(a.traversals, b.traversals);
  EXPECT_EQ(a.buckets_walked, b.buckets_walked);
  EXPECT_EQ(a.lazy_unlinks, b.lazy_unlinks);
}

TEST(TracedMapLookup, RecorderOffMatchesRecorderOn) {
  for (const bool inline_test : {true, false}) {
    LookupSide on(inline_test);
    LookupSide off(inline_test);
    code::PathTrace trace;
    on.rec.enable(&trace);
    // Repeats (one-entry cache hits), chain walks, and misses.
    const std::uint64_t keys[] = {3, 3, 17, 39, 39, 39, 0, 55, 17, 100, 4, 4};
    for (const std::uint64_t k : keys) {
      const xk::MapKey key{.hi = 7, .lo = k};
      const auto a = proto::traced_map_lookup(on.ctx, on.map, key, 0);
      const auto b = proto::traced_map_lookup(off.ctx, off.map, key, 0);
      EXPECT_EQ(a, b) << "key " << k;
      expect_same_stats(on.map.stats(), off.map.stats());
      EXPECT_EQ(on.map.cache_slot_sim(), off.map.cache_slot_sim())
          << "key " << k;
    }
    EXPECT_FALSE(trace.empty());
    EXPECT_GT(on.map.stats().cache_hits, 0u);
  }
}

// --- frame buffers -----------------------------------------------------------

TEST(FrameReuse, ShortFrameAfterLongFrameIsZeroPadded) {
  net::World w(net::StackKind::kTcpIp, code::StackConfig::Std(),
               code::StackConfig::Std());
  std::vector<std::vector<std::uint8_t>> rx;
  w.wire().connect(1, [&rx](std::span<const std::uint8_t> f) {
    rx.emplace_back(f.begin(), f.end());
  });
  xk::SimAlloc& arena = w.client().arena();

  xk::Message big(arena, 64, 1500);
  std::fill_n(big.data(), big.length(), std::uint8_t{0xEE});
  w.client().lance().send(big);
  w.events().advance_by(1'000'000);

  xk::Message small(arena, 64, 60);
  std::fill_n(small.data(), small.length(), std::uint8_t{0x11});
  w.client().lance().send(small);
  w.events().advance_by(1'000'000);

  ASSERT_EQ(rx.size(), 2u);
  EXPECT_EQ(rx[0], std::vector<std::uint8_t>(1500, 0xEE));
  ASSERT_EQ(rx[1].size(), proto::Lance::kMinFrame);
  for (std::size_t i = 0; i < rx[1].size(); ++i) {
    EXPECT_EQ(rx[1][i], i < 60 ? 0x11 : 0x00) << "byte " << i;
  }
}

struct CapturingWire {
  CapturingWire() {
    for (int port = 0; port < 2; ++port) {
      wire.connect(port, [this, port](std::span<const std::uint8_t> f) {
        rx[port].emplace_back(f.begin(), f.end());
      });
    }
  }
  xk::EventManager events;
  net::Wire wire{events};
  std::vector<std::vector<std::uint8_t>> rx[2];
};

TEST(FrameReuse, DuplicateStaysIntactWhenItsTwinsBufferIsReused) {
  CapturingWire w;
  w.wire.injector().force(0, net::FaultKind::kDuplicate);
  w.wire.transmit(0, std::vector<std::uint8_t>(64, 0xA1));
  // The first copy arrives and its buffer goes back to the spare list; the
  // next transmit reuses it while the second copy is still in flight.
  ASSERT_TRUE(w.events.advance_to_next());
  ASSERT_EQ(w.rx[1].size(), 1u);
  w.wire.transmit(0, std::vector<std::uint8_t>(64, 0xF6));
  w.events.advance_by(1'000'000);

  ASSERT_EQ(w.rx[1].size(), 3u);
  EXPECT_EQ(w.rx[1][0], std::vector<std::uint8_t>(64, 0xA1));
  EXPECT_EQ(w.rx[1][1], std::vector<std::uint8_t>(64, 0xA1));
  EXPECT_EQ(w.rx[1][2], std::vector<std::uint8_t>(64, 0xF6));
  EXPECT_TRUE(w.wire.conserved());
}

TEST(FrameReuse, CorruptionStaysInItsOwnFrame) {
  CapturingWire w;
  const std::vector<std::uint8_t> sent(64, 0xB2);
  w.wire.injector().force(0, net::FaultKind::kCorrupt, 5, true);
  w.wire.transmit(0, sent);
  w.events.advance_by(1'000'000);
  // The sender's bytes are untouched; only the wire's copy was flipped.
  EXPECT_EQ(sent, std::vector<std::uint8_t>(64, 0xB2));
  ASSERT_EQ(w.rx[1].size(), 1u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(w.rx[1][0][i], i == 5 ? 0x4D : 0xB2) << "byte " << i;
  }

  // The corrupted frame's recycled buffer carries the next frame intact,
  // in either direction.
  w.wire.transmit(0, sent);
  w.wire.transmit(1, std::vector<std::uint8_t>(80, 0x3C));
  w.events.advance_by(1'000'000);
  ASSERT_EQ(w.rx[1].size(), 2u);
  EXPECT_EQ(w.rx[1][1], sent);
  ASSERT_EQ(w.rx[0].size(), 1u);
  EXPECT_EQ(w.rx[0][0], std::vector<std::uint8_t>(80, 0x3C));
  EXPECT_TRUE(w.wire.conserved());
}

// --- message chunks ----------------------------------------------------------

TEST(MessageChunkReuse, ReusedChunkIsZeroFilledAndCountsItsOwnReferences) {
  xk::SimAlloc arena;
  xk::SimAddr first = 0;
  {
    xk::Message m(arena, 16, 200);
    std::fill_n(m.data(), m.length(), std::uint8_t{0xFF});
    first = m.sim_addr();
    xk::Message shared = m.clone();
    EXPECT_EQ(m.refcount(), 2);
  }
  EXPECT_EQ(arena.live_bytes(), 0u);
  // Same size class: the arena hands back the same simulated chunk, and
  // its host bytes start zeroed again.
  xk::Message again(arena, 16, 200);
  EXPECT_EQ(again.sim_addr(), first);
  EXPECT_EQ(again.refcount(), 1);
  EXPECT_TRUE(std::all_of(again.view().begin(), again.view().end(),
                          [](std::uint8_t b) { return b == 0; }));
  xk::Message moved = std::move(again);
  EXPECT_EQ(moved.refcount(), 1);
  EXPECT_EQ(again.refcount(), 0);  // NOLINT(bugprone-use-after-move)
}

TEST(MessageChunkReuse, SimulatedAddressesFollowAllocAndFree) {
  // A message's chunk is exactly alloc()/free() of its size: interleaved
  // messages and bare chunks get the addresses a bare-chunk replay gets.
  xk::SimAlloc with_messages;
  xk::SimAlloc bare;
  std::vector<xk::SimAddr> a;
  std::vector<xk::SimAddr> b;
  for (int round = 0; round < 4; ++round) {
    xk::Message m1(with_messages, 64, 32);
    xk::Message m2(with_messages, 64, 1518);
    a.push_back(m1.sim_addr() - 64);
    a.push_back(m2.sim_addr() - 64);
    m1.refresh(with_messages, 64, 40, /*shortcut=*/false);
    a.push_back(m1.sim_addr() - 64);

    const xk::SimAddr c1 = bare.alloc(96);
    const xk::SimAddr c2 = bare.alloc(1582);
    const xk::SimAddr c3 = bare.alloc(104);  // refresh: new before old freed
    bare.free(c1, 96);
    b.insert(b.end(), {c1, c2, c3});
    bare.free(c2, 1582);  // m2, then m1, leave scope
    bare.free(c3, 104);
  }
  EXPECT_EQ(a, b);
}

// --- guided Zipf draws -------------------------------------------------------

/// The sampler's draws, recomputed with a search of the whole CDF.
std::vector<std::size_t> reference_draws(std::size_t n, double s,
                                         std::uint64_t seed,
                                         std::size_t count) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  cdf.back() = 1.0;
  std::uint64_t state = seed;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < count; ++i) {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    const double r =
        static_cast<double>((state * 0x2545F4914F6CDD1DULL) >> 11) * 0x1.0p-53;
    out.push_back(static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), r) - cdf.begin()));
  }
  return out;
}

TEST(ZipfGuide, DrawsMatchAFullCdfSearch) {
  struct Case {
    std::size_t n;
    double s;
  };
  // One flow, a power of two, the fleet's sizes, uniform, and a population
  // past the guide's 2^16 cap.
  for (const Case c :
       {Case{1, 1.1}, Case{2, 1.1}, Case{4096, 1.1}, Case{4097, 0.0},
        Case{100'000, 1.1}, Case{70'000, 2.5}}) {
    harness::ZipfSampler z(c.n, c.s, 42);
    const std::vector<std::size_t> want = reference_draws(c.n, c.s, 42, 20'000);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(z.next(), want[i])
          << "n=" << c.n << " s=" << c.s << " draw " << i;
    }
  }
}

}  // namespace
}  // namespace l96
