// Tests for the unified runner API (harness/runner.h): each run() overload
// against the engine it wraps (byte-identical), the shared worker pool,
// and the out_path plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "harness/runner.h"

namespace l96 {
namespace {

using harness::BurstCostTable;
using harness::FleetRunSpec;
using harness::FleetSpec;
using harness::Outcome;
using harness::RecoveryRunSpec;
using harness::RecoverySpec;
using harness::SoakRunSpec;
using harness::SoakSpec;

const BurstCostTable& tcp_table() {
  static const BurstCostTable table = harness::measure_burst_costs(
      net::StackKind::kTcpIp, code::StackConfig::All(), 2);
  return table;
}

FleetSpec fleet_spec(std::uint64_t seed) {
  FleetSpec spec;
  spec.label = "runner-test";
  spec.kind = net::StackKind::kTcpIp;
  spec.config = code::StackConfig::All();
  spec.connections = 6;
  spec.packets = 48;
  spec.batch = 2;
  spec.zipf_s = 1.1;
  spec.seed = seed;
  spec.scheme = code::FlowCacheScheme::kLru;
  spec.cache_capacity = 8;
  spec.churn_every = 16;
  return spec;
}

TEST(RunIndexedJobsTest, RunsEveryJobAndReportsWorkers) {
  std::vector<std::atomic<int>> hits(64);
  const std::size_t used = harness::run_indexed_jobs(
      64, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  EXPECT_GE(used, 1u);
  EXPECT_LE(used, 4u);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(harness::run_indexed_jobs(0, 4, [](std::size_t) {}), 0u);
}

TEST(RunIndexedJobsTest, RethrowsFirstJobError) {
  EXPECT_THROW(harness::run_indexed_jobs(
                   4, 2,
                   [](std::size_t i) {
                     if (i == 2) throw std::runtime_error("job failed");
                   }),
               std::runtime_error);
}

TEST(ResolveWorkersTest, ZeroPicksHardwareFlooredAtTwo) {
  EXPECT_GE(harness::resolve_workers(0), 2u);
  EXPECT_EQ(harness::resolve_workers(7), 7u);
}

TEST(RunnerTest, FleetWrapperIsByteIdentical) {
  const std::vector<FleetSpec> rows = {fleet_spec(3), fleet_spec(4)};

  std::vector<harness::FleetResult> direct;
  for (const FleetSpec& row : rows) {
    direct.push_back(harness::run_fleet(row, tcp_table()));
  }

  FleetRunSpec rs;
  rs.common.workers = 2;
  rs.rows = rows;
  rs.costs = tcp_table();
  const Outcome o = harness::run(rs);

  ASSERT_EQ(o.fleet.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(o.fleet[i].sample_digest, direct[i].sample_digest);
    EXPECT_EQ(o.fleet[i].packets_sampled, direct[i].packets_sampled);
    EXPECT_DOUBLE_EQ(o.fleet[i].latency.mean, direct[i].latency.mean);
  }
  EXPECT_EQ(o.schema, "l96.fleet.v2");
  EXPECT_TRUE(o.ok);
  // The emitted section is the same object fleet_json produces.
  EXPECT_EQ(o.section.dump(), harness::fleet_json(tcp_table(), direct).dump());
}

TEST(RunnerTest, RecoveryWrapperIsByteIdentical) {
  RecoverySpec spec;
  spec.fleet = fleet_spec(5);
  spec.fleet.churn_every = 0;
  const std::vector<RecoverySpec> rows = {spec};

  RecoveryRunSpec rs;
  rs.common.workers = 2;
  rs.rows = rows;
  rs.costs = tcp_table();
  const Outcome o = harness::run(rs);

  ASSERT_EQ(o.recovery.size(), 1u);
  EXPECT_EQ(o.section.dump(),
            harness::recovery_json(
                tcp_table(), {harness::run_recovery(spec, tcp_table())})
                .dump());
  // Chaos-free recovery must still match the flat fleet engine.
  EXPECT_EQ(o.recovery[0].fleet.sample_digest,
            harness::run_fleet(spec.fleet, tcp_table()).sample_digest);
  EXPECT_EQ(o.schema, "l96.recovery.v1");
}

TEST(RunnerTest, SoakWrapperIsByteIdentical) {
  SoakSpec spec;
  spec.kind = net::StackKind::kTcpIp;
  spec.roundtrips = 200;
  spec.plan.seed = 7;
  spec.plan.rates[0].drop = 0.005;
  spec.plan.rates[1].drop = 0.005;
  spec.plan.start_after_frames = 4;

  const harness::SoakReport direct = harness::run_soak(spec);

  SoakRunSpec rs;
  rs.rows = {spec};
  const Outcome o = harness::run(rs);

  ASSERT_EQ(o.soak.size(), 1u);
  EXPECT_EQ(o.soak[0].summary(), direct.summary());
  EXPECT_EQ(o.ok, direct.ok());
  EXPECT_EQ(o.schema, "l96.soak.v1");
  EXPECT_NE(o.section.dump().find("\"schema\":\"l96.soak.v1\""),
            std::string::npos);
}

TEST(RunnerTest, OutPathWritesSection) {
  const std::string path = "bench/out/test_runner_section.json";
  FleetRunSpec rs;
  rs.common.workers = 1;
  rs.common.out_path = path;
  rs.rows = {fleet_spec(11)};
  rs.costs = tcp_table();
  const Outcome o = harness::run(rs);
  EXPECT_EQ(o.out_path, path);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), o.section.dump() + "\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace l96
