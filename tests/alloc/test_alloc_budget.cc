// Host-allocation budget of the fleet frame path.
//
// Replaces the global operator new with a counting one, so it runs as its
// own test executable.  A 4,096-flow LRU row is run at two schedule
// lengths; the difference in operator new calls, divided by the extra
// scheduled packets, is the steady-state allocation count per packet (set
// up, connection establishment and the final report cancel out).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "harness/fleet.h"

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

#ifndef L96_SANITIZE
// Not inlined, so the compiler never pairs a new-expression with free().
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif

namespace l96 {
namespace {

TEST(AllocBudget, FleetFramePathAllocatesAtMostTwoPerScheduledPacket) {
#ifdef L96_SANITIZE
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#endif
  harness::FleetSpec spec;
  spec.label = "alloc-budget";
  spec.kind = net::StackKind::kTcpIp;
  spec.config = code::StackConfig::All();
  spec.scheme = code::FlowCacheScheme::kLru;
  spec.connections = 4096;
  spec.cache_capacity = 8;
  spec.zipf_s = 1.1;
  spec.seed = 1;
  const harness::BurstCostTable costs =
      harness::measure_burst_costs(spec.kind, spec.config);

  const auto allocations = [&](std::uint64_t packets) {
    spec.packets = packets;
    const std::uint64_t before = g_news.load();
    const harness::FleetResult r = harness::run_fleet(spec, costs);
    const std::uint64_t used = g_news.load() - before;
    EXPECT_EQ(harness::conservation_error(r), "");
    return used;
  };
  constexpr std::uint64_t kPackets = 10'000;
  const std::uint64_t shorter = allocations(kPackets);
  const std::uint64_t longer = allocations(2 * kPackets);
  ASSERT_GE(longer, shorter);
  const double per_packet =
      static_cast<double>(longer - shorter) / static_cast<double>(kPackets);
  std::printf("host allocations per scheduled packet: %.3f\n", per_packet);
  RecordProperty("allocs_per_packet", std::to_string(per_packet));
  EXPECT_LE(per_packet, 2.0);
}

}  // namespace
}  // namespace l96
