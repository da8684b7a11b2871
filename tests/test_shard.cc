// Tests for the sharded multi-core fleet (harness/shard.h): the 1-core
// digest pin against run_fleet, byte-identical results across worker
// counts, steering determinism and conservation, the churn-owner rule,
// the jumbo local-port mode, and the open-loop queueing view.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "harness/fleet.h"
#include "harness/fleet_internal.h"
#include "harness/runner.h"
#include "harness/shard.h"

namespace l96 {
namespace {

using harness::BurstCostTable;
using harness::FleetSpec;
using harness::ShardResult;
using harness::ShardSpec;
using harness::SteeringPolicy;

const BurstCostTable& tcp_table() {
  static const BurstCostTable table = harness::measure_burst_costs(
      net::StackKind::kTcpIp, code::StackConfig::All(), 3);
  return table;
}

const BurstCostTable& rpc_table() {
  static const BurstCostTable table = harness::measure_burst_costs(
      net::StackKind::kRpc, code::StackConfig::All(), 3);
  return table;
}

/// Shard rows through harness::run on `workers` threads.
std::vector<ShardResult> run_rows(const std::vector<ShardSpec>& rows,
                                  const BurstCostTable& costs,
                                  unsigned workers) {
  harness::ShardRunSpec rs;
  rs.common.workers = workers;
  rs.rows = rows;
  rs.costs = costs;
  return harness::run(rs).shard;
}

ShardResult run_shard(const ShardSpec& spec,
                      const BurstCostTable& costs = tcp_table()) {
  return run_rows({spec}, costs, 1).front();
}

FleetSpec fleet_spec() {
  FleetSpec spec;
  spec.label = "shard-test";
  spec.kind = net::StackKind::kTcpIp;
  spec.config = code::StackConfig::All();
  spec.connections = 12;
  spec.packets = 96;
  spec.batch = 4;
  spec.zipf_s = 1.1;
  spec.seed = 9;
  spec.scheme = code::FlowCacheScheme::kLru;
  spec.cache_capacity = 8;
  spec.churn_every = 24;
  return spec;
}

TEST(SteeringTest, DeterministicAndComplete) {
  const FleetSpec fleet = fleet_spec();
  for (SteeringPolicy p :
       {SteeringPolicy::kFlowHash, SteeringPolicy::kLeastLoaded}) {
    const auto a = harness::steer_flows(fleet, 4, p);
    const auto b = harness::steer_flows(fleet, 4, p);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), fleet.connections);
    for (std::uint32_t c : a) EXPECT_LT(c, 4u);
  }
  // One core: everything on core 0.
  for (std::uint32_t c :
       harness::steer_flows(fleet, 1, SteeringPolicy::kFlowHash)) {
    EXPECT_EQ(c, 0u);
  }
  EXPECT_THROW(harness::steer_flows(fleet, 0, SteeringPolicy::kFlowHash),
               std::invalid_argument);
}

TEST(SteeringTest, HashSpreadsFlowsAcrossCores) {
  FleetSpec fleet = fleet_spec();
  fleet.connections = 256;
  const auto map =
      harness::steer_flows(fleet, 8, SteeringPolicy::kFlowHash);
  std::vector<std::size_t> per_core(8, 0);
  for (std::uint32_t c : map) ++per_core[c];
  for (std::size_t n : per_core) {
    EXPECT_GT(n, 8u);  // 256/8 = 32 expected; any core starving means a
    EXPECT_LT(n, 96u);  // degenerate hash
  }
}

TEST(SteeringTest, LeastLoadedBalancesZipfLoad) {
  FleetSpec fleet = fleet_spec();
  fleet.connections = 32;
  fleet.packets = 512;
  fleet.zipf_s = 1.3;
  fleet.churn_every = 0;
  const auto schedule = harness::fleet_detail::build_schedule(fleet);
  const auto map =
      harness::steer_flows(fleet, 4, SteeringPolicy::kLeastLoaded);
  std::vector<std::uint64_t> load(4, 0);
  for (const auto& b : schedule) load[map[b.flow]] += b.len;
  const std::uint64_t max_load = *std::max_element(load.begin(), load.end());
  // The hot flow alone is ~30% of the schedule under s=1.3, so the
  // least-loaded bound is its core; no core should exceed ~60%.
  EXPECT_LT(max_load, 512u * 6 / 10);
}

TEST(ShardTest, OneCoreMatchesFlatRunFleetDigest) {
  const FleetSpec fleet = fleet_spec();
  const harness::FleetResult flat = harness::run_fleet(fleet, tcp_table());

  ShardSpec spec;
  spec.fleet = fleet;
  spec.cores = 1;
  const ShardResult sharded = run_shard(spec);

  EXPECT_EQ(sharded.sample_digest, flat.sample_digest);
  EXPECT_EQ(sharded.packets_sampled, flat.packets_sampled);
  EXPECT_EQ(sharded.scheduled_sampled, flat.scheduled_sampled);
  EXPECT_EQ(sharded.handshake_sampled, flat.handshake_sampled);
  EXPECT_EQ(sharded.dropped_in_churn, flat.dropped_in_churn);
  EXPECT_EQ(sharded.bursts, flat.bursts);
  EXPECT_EQ(sharded.slow_packets, flat.slow_packets);
  EXPECT_EQ(sharded.churns, flat.churns);
  EXPECT_EQ(sharded.cache.lookups, flat.cache.lookups);
  EXPECT_EQ(sharded.cache.hits, flat.cache.hits);
  EXPECT_EQ(sharded.cache.stale_hits, flat.cache.stale_hits);
  EXPECT_DOUBLE_EQ(sharded.latency.p50, flat.latency.p50);
  EXPECT_DOUBLE_EQ(sharded.latency.p999, flat.latency.p999);
  EXPECT_DOUBLE_EQ(sharded.latency.mean, flat.latency.mean);
  EXPECT_TRUE(sharded.conserved);
  ASSERT_EQ(sharded.cores.size(), 1u);
  EXPECT_EQ(sharded.cores[0].sample_digest, flat.sample_digest);
}

TEST(ShardTest, DigestsIdenticalAcrossWorkerCountsAndRuns) {
  ShardSpec spec;
  spec.fleet = fleet_spec();
  spec.cores = 4;
  spec.arrival_us = 150.0;
  const std::vector<ShardSpec> rows = {spec};

  const auto a = run_rows(rows, tcp_table(), 1);
  const auto b = run_rows(rows, tcp_table(), 4);
  const auto c = run_rows(rows, tcp_table(), 4);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].sample_digest, b[0].sample_digest);
  EXPECT_EQ(b[0].sample_digest, c[0].sample_digest);
  EXPECT_DOUBLE_EQ(a[0].makespan_us, b[0].makespan_us);
  EXPECT_DOUBLE_EQ(a[0].sojourn.p999, b[0].sojourn.p999);
  for (std::size_t core = 0; core < 4; ++core) {
    EXPECT_EQ(a[0].cores[core].sample_digest, b[0].cores[core].sample_digest);
    EXPECT_EQ(a[0].cores[core].packets_sampled,
              b[0].cores[core].packets_sampled);
  }
}

TEST(ShardTest, SteeringConservationAcrossCores) {
  for (SteeringPolicy p :
       {SteeringPolicy::kFlowHash, SteeringPolicy::kLeastLoaded}) {
    ShardSpec spec;
    spec.fleet = fleet_spec();
    spec.cores = 4;
    spec.steering = p;
    const ShardResult r = run_shard(spec);
    EXPECT_TRUE(r.conserved);
    EXPECT_EQ(r.scheduled_sampled + r.dropped_in_churn, spec.fleet.packets);

    std::uint64_t scheduled = 0, packets = 0, bursts = 0;
    std::size_t flows = 0;
    for (const auto& c : r.cores) {
      scheduled += c.scheduled_sampled;
      packets += c.packets_sampled;
      bursts += c.bursts;
      flows += c.flows;
    }
    EXPECT_EQ(scheduled, r.scheduled_sampled);
    EXPECT_EQ(packets, r.packets_sampled);
    EXPECT_EQ(bursts, r.bursts);
    EXPECT_EQ(flows, spec.fleet.connections);
  }
}

TEST(ShardTest, ChurnRunsOnFlowZeroOwnerOnly) {
  ShardSpec spec;
  spec.fleet = fleet_spec();
  spec.cores = 4;
  const auto map =
      harness::steer_flows(spec.fleet, spec.cores, spec.steering);
  const ShardResult r = run_shard(spec);
  ASSERT_GT(r.churns, 0u);
  for (const auto& c : r.cores) {
    if (c.core == map[0]) {
      EXPECT_EQ(c.churns, r.churns);
    } else {
      EXPECT_EQ(c.churns, 0u);
      EXPECT_EQ(c.handshake_sampled, 0u);
    }
  }
}

TEST(ShardTest, RpcFleetShards) {
  ShardSpec spec;
  spec.fleet = fleet_spec();
  spec.fleet.kind = net::StackKind::kRpc;
  spec.fleet.churn_every = 0;
  spec.cores = 4;
  const ShardResult r = run_shard(spec, rpc_table());
  EXPECT_TRUE(r.conserved);
  EXPECT_EQ(r.scheduled_sampled, spec.fleet.packets);
  EXPECT_EQ(r.handshake_sampled, 0u);
}

TEST(ShardTest, QueueModelExposesHotCoreUnderSkew) {
  ShardSpec spec;
  spec.fleet = fleet_spec();
  spec.fleet.connections = 32;
  spec.fleet.packets = 512;
  spec.fleet.zipf_s = 1.4;
  spec.fleet.churn_every = 0;
  spec.cores = 4;
  // Offer aggregate load around the fleet's mean service capacity: the
  // hot flow's core saturates, the rest idle.
  const ShardResult probe = run_shard(spec);
  spec.arrival_us = probe.latency.mean / static_cast<double>(spec.cores);
  const ShardResult r = run_shard(spec);

  EXPECT_GT(r.makespan_us, 0.0);
  EXPECT_GT(r.throughput_mpps, 0.0);
  const auto& hot = r.cores[r.hot_core];
  EXPECT_GT(hot.utilization, 0.0);
  // The hot core queues; its sojourn tail must exceed its pure service
  // tail, and somebody must have waited.
  EXPECT_GE(hot.sojourn.p999, hot.service.p999);
  EXPECT_GT(hot.max_wait_us, 0.0);
  // Sojourn == service when the queue model is off.
  EXPECT_DOUBLE_EQ(probe.sojourn.p999, probe.latency.p999);
}

TEST(ShardTest, ValidatesSpec) {
  ShardSpec spec;
  spec.fleet = fleet_spec();
  spec.cores = 0;
  EXPECT_THROW(run_shard(spec),
               std::invalid_argument);
  spec.cores = 2;
  spec.arrival_us = -1;
  EXPECT_THROW(run_shard(spec),
               std::invalid_argument);
}

TEST(ShardTest, FlatRunFleetRejectsOverflowingPopulation) {
  FleetSpec fleet = fleet_spec();
  fleet.connections = harness::fleet_detail::kMaxFlowsPerWorld + 1;
  EXPECT_THROW(harness::run_fleet(fleet, tcp_table()), std::invalid_argument);
}

TEST(ShardTest, ShardJsonCarriesSchemaAndRows) {
  ShardSpec spec;
  spec.fleet = fleet_spec();
  spec.cores = 2;
  const ShardResult r = run_shard(spec);
  const harness::Json section = harness::shard_json(tcp_table(), {r});
  const std::string dump = section.dump();
  EXPECT_NE(dump.find("\"schema\":\"l96.shard.v1\""), std::string::npos);
  EXPECT_NE(dump.find("\"per_core\""), std::string::npos);
  EXPECT_NE(dump.find("\"steering\":\"hash\""), std::string::npos);
  EXPECT_NE(dump.find("\"conserved\":true"), std::string::npos);
}

}  // namespace
}  // namespace l96
