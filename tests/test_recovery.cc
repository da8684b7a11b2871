// Tests for the recovery harness (harness/recovery.h): chaos-free byte-
// identity with the fleet engine, determinism across runs and worker
// counts, dark windows + finite time-to-recover under blackout and
// crash/reboot scripts, the fleet row's rules, and the input validation
// guards.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "harness/runner.h"

namespace l96 {
namespace {

using harness::BurstCostTable;
using harness::RecoveryResult;
using harness::RecoverySpec;

const BurstCostTable& tcp_table() {
  static const BurstCostTable table = harness::measure_burst_costs(
      net::StackKind::kTcpIp, code::StackConfig::All(), 1);
  return table;
}

RecoverySpec small_spec() {
  RecoverySpec spec;
  spec.fleet.label = "test";
  spec.fleet.kind = net::StackKind::kTcpIp;
  spec.fleet.config = code::StackConfig::All();
  spec.fleet.connections = 4;
  spec.fleet.packets = 48;
  spec.fleet.zipf_s = 1.1;
  spec.fleet.seed = 5;
  spec.fleet.scheme = code::FlowCacheScheme::kLru;
  spec.fleet.cache_capacity = 8;
  return spec;
}

RecoverySpec crash_spec() {
  RecoverySpec spec = small_spec();
  spec.chaos = net::ChaosTimeline::parse(
      "crash@20000:server reboot@220000:server");
  spec.keepalive_idle_us = 50'000;
  spec.keepalive_intvl_us = 25'000;
  spec.keepalive_probes = 2;
  return spec;
}

TEST(RecoveryTest, ChaosFreeRunIsByteIdenticalToFleetEngine) {
  const RecoverySpec spec = small_spec();  // empty timeline, knobs off
  const harness::FleetResult fleet = harness::run_fleet(spec.fleet,
                                                        tcp_table());
  const RecoveryResult rec = harness::run_recovery(spec, tcp_table());
  EXPECT_EQ(rec.fleet.sample_digest, fleet.sample_digest);
  EXPECT_EQ(rec.fleet.packets_sampled, fleet.packets_sampled);
  EXPECT_EQ(rec.fleet.scheduled_sampled, fleet.scheduled_sampled);
  EXPECT_DOUBLE_EQ(rec.fleet.latency.p99, fleet.latency.p99);
  EXPECT_EQ(rec.fleet.lost_packets, 0u);
  EXPECT_EQ(rec.fleet.reconnects, 0u);
  EXPECT_TRUE(rec.windows.empty());
  EXPECT_EQ(rec.recovery_samples, 0u);
  EXPECT_EQ(rec.steady_samples, rec.fleet.packets_sampled);
}

TEST(RecoveryTest, BlackoutWindowIsDarkAndRecovers) {
  RecoverySpec spec = small_spec();
  spec.chaos = net::ChaosTimeline::parse("link_down@20000 link_up@120000");
  const RecoveryResult r = harness::run_recovery(spec, tcp_table());

  ASSERT_EQ(r.windows.size(), 1u);
  EXPECT_EQ(r.windows[0].samples_in_window, 0u);  // goodput zero in the dark
  EXPECT_TRUE(r.windows[0].recovered);
  EXPECT_GE(r.windows[0].ttr_us, 0.0);
  EXPECT_GT(r.blackout_drops, 0u);
  // Conservation: every scheduled packet was priced, dropped in churn, or
  // lost to the disruption.
  EXPECT_EQ(r.fleet.spec.packets, r.fleet.scheduled_sampled +
                                      r.fleet.dropped_in_churn +
                                      r.fleet.lost_packets);
  EXPECT_GT(r.recovery_samples, 0u);
  EXPECT_GT(r.steady_samples, 0u);
}

TEST(RecoveryTest, CrashRebootReconnectsAndPricesTheTail) {
  const RecoveryResult r = harness::run_recovery(crash_spec(), tcp_table());

  ASSERT_EQ(r.windows.size(), 1u);
  EXPECT_TRUE(r.windows[0].window.crash);
  EXPECT_EQ(r.windows[0].samples_in_window, 0u);  // a corpse delivers nothing
  EXPECT_TRUE(r.windows[0].recovered);
  EXPECT_GE(r.windows[0].ttr_us, 0.0);
  EXPECT_EQ(r.server_incarnation, 2u);
  EXPECT_GE(r.fleet.reconnects, 1u);
  EXPECT_GT(r.frames_to_dead + r.blackout_drops + r.rst_sent, 0u);
  EXPECT_EQ(r.fleet.spec.packets, r.fleet.scheduled_sampled +
                                      r.fleet.dropped_in_churn +
                                      r.fleet.lost_packets);
  // The flushed flow cache and the reconnect storm price real work into
  // the recovery phase.
  EXPECT_GT(r.recovery_samples, 0u);
  EXPECT_GT(r.recovery.p999, r.steady.p999);
}

TEST(RecoveryTest, DeterministicAcrossRunsAndWorkerCounts) {
  const std::vector<RecoverySpec> specs = {
      small_spec(),
      [] {
        RecoverySpec s = small_spec();
        s.chaos = net::ChaosTimeline::parse("link_down@20000 link_up@120000");
        return s;
      }(),
      crash_spec(),
  };
  const auto run_on = [&](unsigned workers) {
    harness::RecoveryRunSpec rs;
    rs.common.workers = workers;
    rs.rows = specs;
    rs.costs = tcp_table();
    return harness::run(rs).recovery;
  };
  const auto a = run_on(1);
  const auto b = run_on(4);
  const auto c = run_on(4);
  ASSERT_EQ(a.size(), specs.size());
  ASSERT_EQ(b.size(), specs.size());
  const std::string dump_a = harness::recovery_json(tcp_table(), a).dump();
  EXPECT_EQ(dump_a, harness::recovery_json(tcp_table(), b).dump());
  EXPECT_EQ(dump_a, harness::recovery_json(tcp_table(), c).dump());
}

TEST(RecoveryTest, InstallsTheRowsDecoyRules) {
  // A recovery row is a fleet row: its decoy rule table is installed on
  // the server.  Eight decoys keep the classifier on its linear scan
  // (tuple space only starts at 16 paths and would skip the decoys), so
  // every miss scan wades through them.
  RecoverySpec plain = small_spec();
  plain.fleet.scheme = code::FlowCacheScheme::kOneBehind;
  RecoverySpec ruled = plain;
  ruled.fleet.rules = 8;
  const RecoveryResult p = harness::run_recovery(plain, tcp_table());
  const RecoveryResult r = harness::run_recovery(ruled, tcp_table());
  EXPECT_GT(r.fleet.cache.rules_examined, p.fleet.cache.rules_examined);
}

TEST(RecoveryTest, JsonSectionIsSchemaVersioned) {
  RecoverySpec spec = small_spec();
  spec.fleet.rules = 8;
  const RecoveryResult r = harness::run_recovery(spec, tcp_table());
  const harness::Json j = harness::recovery_json(tcp_table(), {r});
  ASSERT_TRUE(j.is_object());
  const harness::Json* schema = j.find("schema");
  ASSERT_NE(schema, nullptr);
  ASSERT_NE(schema->as_string(), nullptr);
  EXPECT_EQ(*schema->as_string(), "l96.recovery.v1");
  // The row names the inputs it was priced under.
  const std::string dump = j.dump();
  EXPECT_NE(dump.find("\"kind\":\"tcpip\","), std::string::npos);
  EXPECT_NE(dump.find("\"rules\":8,"), std::string::npos);
  EXPECT_NE(dump.find("\"cache_costs\":{\"measured\":false,"),
            std::string::npos);
  EXPECT_NE(dump.find("\"churn_every\":"), std::string::npos);
}

TEST(RecoveryTest, RejectsClientCrashAndRpc) {
  RecoverySpec client_crash = small_spec();
  client_crash.chaos = net::ChaosTimeline::parse(
      "crash@20000:client reboot@120000:client");
  EXPECT_THROW(harness::run_recovery(client_crash, tcp_table()),
               std::invalid_argument);

  RecoverySpec rpc = small_spec();
  rpc.fleet.kind = net::StackKind::kRpc;
  EXPECT_THROW(harness::run_recovery(rpc, tcp_table()),
               std::invalid_argument);
}

}  // namespace
}  // namespace l96
