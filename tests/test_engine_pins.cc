// Absolute pins for the closed-loop engines: hard-coded sample digests and
// counters for one row of every engine shape — flat TCP and RPC fleets,
// hash-steered TCP (LRU and one-behind) and RPC shards, recovery crash and
// blackout rows, LB drain, crash and default conn-track rows — and the
// summary of one seeded TCP chaos soak.
//
// The other engine tests compare one run against another, so a change that
// moved every engine's samples the same way would pass them all.  These
// values would not: any change to how a packet is scheduled, delivered or
// priced fails here.  A deliberate model change re-records them and names
// the model change that moved them.
#include <gtest/gtest.h>

#include <cstdint>

#include "harness/runner.h"

namespace l96 {
namespace {

using harness::BurstCostTable;
using harness::FleetSpec;

/// What every pinned row reports; 0 where an engine has no such counter.
struct Counters {
  std::uint64_t digest = 0;
  std::uint64_t sampled = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t handshake = 0;
  std::uint64_t dropped = 0;
  std::uint64_t lost = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t slow = 0;
};

void expect_pinned(const Counters& got, const Counters& want) {
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.sampled, want.sampled);
  EXPECT_EQ(got.scheduled, want.scheduled);
  EXPECT_EQ(got.handshake, want.handshake);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.lost, want.lost);
  EXPECT_EQ(got.reconnects, want.reconnects);
  EXPECT_EQ(got.slow, want.slow);
}

Counters counters(const harness::FleetResult& r) {
  return {r.sample_digest,     r.packets_sampled,  r.scheduled_sampled,
          r.handshake_sampled, r.dropped_in_churn, 0,
          0,                   r.slow_packets};
}

const BurstCostTable& tcp_table() {
  static const BurstCostTable table = harness::measure_burst_costs(
      net::StackKind::kTcpIp, code::StackConfig::All(), 4);
  return table;
}

FleetSpec tcp_row() {
  FleetSpec s;
  s.label = "pin-tcp";
  s.kind = net::StackKind::kTcpIp;
  s.config = code::StackConfig::All();
  s.connections = 12;
  s.packets = 96;
  s.batch = 4;
  s.zipf_s = 1.1;
  s.seed = 9;
  s.scheme = code::FlowCacheScheme::kLru;
  s.cache_capacity = 8;
  s.churn_every = 24;
  return s;
}

TEST(EnginePins, FlatTcpFleetWithBatchChurnAndRules) {
  harness::FleetRunSpec rs;
  rs.common.workers = 1;
  rs.rows = {tcp_row()};
  rs.rows[0].rules = 16;
  rs.rows[0].rule_seed = 2;
  rs.costs = tcp_table();
  const harness::FleetResult r = harness::run(rs).fleet.front();
  expect_pinned(counters(r),
                {0x0254e8b70065c810ULL, 102, 96, 6, 0, 0, 0, 3});
  EXPECT_EQ(r.cache.rules_examined, 40u);
}

TEST(EnginePins, FlatRpcFleet) {
  harness::FleetRunSpec rs;
  rs.common.workers = 1;
  FleetSpec row;
  row.label = "pin-rpc";
  row.kind = net::StackKind::kRpc;
  row.config = code::StackConfig::All();
  row.connections = 4;
  row.packets = 24;
  row.batch = 4;
  row.zipf_s = 1.0;
  row.seed = 9;
  row.cache_capacity = 4;
  rs.rows = {row};
  rs.costs = harness::measure_burst_costs(net::StackKind::kRpc,
                                          code::StackConfig::All(), 2);
  expect_pinned(counters(harness::run(rs).fleet.front()),
                {0x0306e9b353fe7f08ULL, 24, 24, 0, 0, 0, 0, 0});
}

TEST(EnginePins, FourCoreHashSteeredShard) {
  harness::ShardRunSpec rs;
  rs.common.workers = 1;
  harness::ShardSpec row;
  row.fleet = tcp_row();
  row.cores = 4;
  rs.rows = {row};
  rs.costs = tcp_table();
  const harness::ShardResult r = harness::run(rs).shard.front();
  expect_pinned({r.sample_digest, r.packets_sampled, r.scheduled_sampled,
                 r.handshake_sampled, r.dropped_in_churn, 0, 0,
                 r.slow_packets},
                {0x649b3a54421e1a99ULL, 102, 96, 6, 0, 0, 0, 3});
  EXPECT_TRUE(r.conserved);
}

harness::ShardResult four_core_shard(const FleetSpec& fleet,
                                     const BurstCostTable& costs) {
  harness::ShardRunSpec rs;
  rs.common.workers = 1;
  harness::ShardSpec row;
  row.fleet = fleet;
  row.cores = 4;
  rs.rows = {row};
  rs.costs = costs;
  return harness::run(rs).shard.front();
}

Counters counters(const harness::ShardResult& r) {
  return {r.sample_digest,     r.packets_sampled,  r.scheduled_sampled,
          r.handshake_sampled, r.dropped_in_churn, 0,
          0,                   r.slow_packets};
}

TEST(EnginePins, FourCoreOneBehindShard) {
  FleetSpec fleet = tcp_row();
  fleet.scheme = code::FlowCacheScheme::kOneBehind;
  const harness::ShardResult r = four_core_shard(fleet, tcp_table());
  expect_pinned(counters(r), {0x6a4e505de0d728eeULL, 102, 96, 6, 0, 0, 0, 2});
  EXPECT_TRUE(r.conserved);
}

TEST(EnginePins, FourCoreRpcShard) {
  FleetSpec fleet;
  fleet.label = "pin-rpc-shard";
  fleet.kind = net::StackKind::kRpc;
  fleet.config = code::StackConfig::All();
  fleet.connections = 16;
  fleet.packets = 64;
  fleet.batch = 4;
  fleet.zipf_s = 1.0;
  fleet.seed = 9;
  fleet.cache_capacity = 4;
  const harness::ShardResult r = four_core_shard(
      fleet, harness::measure_burst_costs(net::StackKind::kRpc,
                                          code::StackConfig::All(), 2));
  expect_pinned(counters(r), {0xa181225c9f9acac8ULL, 64, 64, 0, 0, 0, 0, 0});
  EXPECT_TRUE(r.conserved);
}

Counters recovery_row(const char* script, bool survival_knobs) {
  harness::RecoverySpec row;
  row.fleet.label = "pin-recovery";
  row.fleet.kind = net::StackKind::kTcpIp;
  row.fleet.config = code::StackConfig::All();
  row.fleet.connections = 4;
  row.fleet.packets = 48;
  row.fleet.seed = 5;
  row.chaos = net::ChaosTimeline::parse(script);
  if (survival_knobs) {
    row.keepalive_idle_us = 50'000;
    row.keepalive_intvl_us = 25'000;
    row.keepalive_probes = 2;
    row.max_syn_rexmts = 4;
  }
  harness::RecoveryRunSpec rs;
  rs.common.workers = 1;
  rs.rows = {row};
  rs.costs = harness::measure_burst_costs(net::StackKind::kTcpIp,
                                          code::StackConfig::All(), 1);
  const harness::RecoveryResult r = harness::run(rs).recovery.front();
  Counters c = counters(r.fleet);
  c.lost = r.fleet.lost_packets;
  c.reconnects = r.fleet.reconnects;
  return c;
}

TEST(EnginePins, RecoveryCrashWithKeepaliveAndSynRetries) {
  expect_pinned(recovery_row("crash@20000:server reboot@220000:server", true),
                {0x92c71eff47042d8bULL, 248, 47, 201, 0, 1, 4, 0});
}

TEST(EnginePins, RecoveryBlackout) {
  expect_pinned(recovery_row("link_down@20000 link_up@120000", false),
                {0x0f3be5487eacd483ULL, 48, 48, 0, 0, 0, 0, 0});
}

Counters lb_counters(const harness::LbSpec& row) {
  harness::LbRunSpec rs;
  rs.common.workers = 1;
  rs.rows = {row};
  rs.costs = harness::measure_lb_costs(code::StackConfig::Pin());
  const harness::LbResult r = harness::run(rs).lb.front();
  return {r.fleet.sample_digest,     r.fleet.packets_sampled,
          r.fleet.scheduled_sampled, r.fleet.handshake_sampled,
          0,                         r.fleet.lost_packets,
          r.fleet.reconnects,        r.slow_forwards};
}

Counters lb_row(std::size_t backends, const char* script) {
  harness::LbSpec row;
  row.fleet.label = "pin-lb";
  row.fleet.config = code::StackConfig::Pin();
  row.backends = backends;
  row.fleet.connections = 8;
  row.fleet.packets = 96;
  row.fleet.batch = 2;
  row.fleet.seed = 7;
  row.chaos = net::ChaosTimeline::parse(script);
  return lb_counters(row);
}

TEST(EnginePins, LbDrain) {
  expect_pinned(lb_row(3, "drain@5000:backend1 undrain@30000:backend1"),
                {0x1bbed5b138dec603ULL, 96, 96, 0, 0, 0, 0, 0});
}

TEST(EnginePins, LbCrash) {
  expect_pinned(lb_row(2, "crash@5000:backend0 reboot@60000:backend0"),
                {0xb2f26aaf08d91386ULL, 107, 91, 16, 0, 5, 5, 5});
}

// 64 flows overflow an 8-entry conn track, so this digest holds only
// while an LB row keeps the LB's own 1,024-entry default.
TEST(EnginePins, LbDefaultConnTrackCapacity) {
  harness::LbSpec row;
  row.fleet.label = "pin-lb-track";
  row.fleet.config = code::StackConfig::Pin();
  row.backends = 2;
  row.fleet.connections = 64;
  row.fleet.packets = 256;
  row.fleet.batch = 1;
  row.fleet.zipf_s = 1.1;
  row.fleet.seed = 7;
  expect_pinned(lb_counters(row),
                {0x7d37b047fdcebf83ULL, 256, 256, 0, 0, 0, 0, 0});
}

TEST(EnginePins, SeededTcpChaosSoak) {
  harness::SoakSpec s;
  s.kind = net::StackKind::kTcpIp;
  s.roundtrips = 900;
  s.plan.seed = 7;
  s.plan.start_after_frames = 4;
  for (int p = 0; p < 2; ++p) {
    s.plan.rates[p] = {.drop = 0.02, .corrupt = 0.02, .duplicate = 0.01};
  }
  s.chaos = true;
  EXPECT_EQ(harness::run_soak(s).summary(),
            "completed=1 rt=900 us=12826885 mean_us=14252.094 integ=0 "
            "failed=0 pend=0 live=0 busych=0 reass=0 conserved=1 drops=35 "
            "corrupts=32 dups=20 reorders=0 delays=0 rexmt_tcp=48 "
            "badsum_tcp=13 rexmt_chan=0 nacks=0 badfrm=0 "
            "loghash=40a792b48d793422 reconn=5 bdrop=1 dead=1 purged=0 "
            "incarn=2");
}

}  // namespace
}  // namespace l96
