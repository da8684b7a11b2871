// The packet law, recomputed from emitted JSON: every fleet, shard row,
// shard per-core, recovery and LB row carries the counters
// conservation_error() checks, so a consumer of the sections alone can
// verify that each row's percentiles cover exactly its scheduled traffic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/runner.h"

namespace l96 {
namespace {

using harness::Json;

std::uint64_t counter(const Json& row, const char* key) {
  const Json* v = row.find(key);
  if (v == nullptr || v->as_uint() == nullptr) {
    ADD_FAILURE() << "row lacks unsigned counter '" << key << "'";
    return 0;
  }
  return *v->as_uint();
}

/// conservation_error() over the counters `row` carries in its JSON.
std::string law_error_from_json(const Json& row, const std::string& label) {
  harness::FleetResult r;
  r.spec.label = label;
  r.owned_packets = counter(row, "owned_packets");
  r.packets_sampled = counter(row, "packets_sampled");
  r.scheduled_sampled = counter(row, "scheduled_sampled");
  r.handshake_sampled = counter(row, "handshake_sampled");
  r.dropped_in_churn = counter(row, "dropped_in_churn");
  r.lost_packets = counter(row, "lost_packets");
  return harness::conservation_error(r);
}

const Json::Array& rows_of(const Json& section) {
  const Json* rows = section.find("rows");
  EXPECT_NE(rows, nullptr);
  EXPECT_NE(rows->as_array(), nullptr);
  return *rows->as_array();
}

harness::FleetSpec churned_fleet(const char* label) {
  harness::FleetSpec f;
  f.label = label;
  f.config = code::StackConfig::All();
  f.connections = 12;
  f.packets = 96;
  f.batch = 4;
  f.seed = 9;
  f.churn_every = 24;
  return f;
}

const harness::BurstCostTable& tcp_table() {
  static const harness::BurstCostTable t = harness::measure_burst_costs(
      net::StackKind::kTcpIp, code::StackConfig::All(), 4);
  return t;
}

TEST(PacketLawJson, FleetRowsCarryTheLaw) {
  harness::FleetRunSpec rs;
  rs.common.workers = 1;
  rs.rows = {churned_fleet("fleet")};
  rs.costs = tcp_table();
  const harness::Outcome o = harness::run(rs);
  const Json::Array& rows = rows_of(o.section);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(law_error_from_json(rows[0], "fleet"), "");
  EXPECT_EQ(counter(rows[0], "owned_packets"), 96u);
  EXPECT_GT(counter(rows[0], "dropped_in_churn") +
                counter(rows[0], "handshake_sampled"),
            0u);
}

TEST(PacketLawJson, ShardRowsAndCoresCarryTheLaw) {
  harness::ShardSpec s;
  s.fleet = churned_fleet("shard");
  s.cores = 3;
  harness::ShardRunSpec rs;
  rs.common.workers = 1;
  rs.rows = {s};
  rs.costs = tcp_table();
  const harness::Outcome o = harness::run(rs);
  const Json::Array& rows = rows_of(o.section);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(law_error_from_json(rows[0], "shard"), "");
  EXPECT_EQ(counter(rows[0], "owned_packets"), 96u);
  const Json* per_core = rows[0].find("per_core");
  ASSERT_NE(per_core, nullptr);
  ASSERT_NE(per_core->as_array(), nullptr);
  ASSERT_EQ(per_core->size(), 3u);
  std::uint64_t owned = 0;
  for (const Json& core : *per_core->as_array()) {
    EXPECT_EQ(law_error_from_json(core, "shard core"), "");
    owned += counter(core, "owned_packets");
  }
  EXPECT_EQ(owned, 96u);
}

TEST(PacketLawJson, RecoveryRowsCarryTheLaw) {
  harness::RecoverySpec s;
  s.fleet = churned_fleet("recovery");
  s.fleet.churn_every = 0;
  s.fleet.batch = 1;
  s.fleet.connections = 4;
  s.fleet.packets = 48;
  s.chaos = net::ChaosTimeline::parse(
      "crash@20000:server reboot@220000:server");
  s.keepalive_idle_us = 50'000;
  s.keepalive_intvl_us = 25'000;
  s.keepalive_probes = 2;
  harness::RecoveryRunSpec rs;
  rs.common.workers = 1;
  rs.rows = {s};
  rs.costs = tcp_table();
  const harness::Outcome o = harness::run(rs);
  const Json::Array& rows = rows_of(o.section);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(law_error_from_json(rows[0], "recovery"), "");
  EXPECT_EQ(counter(rows[0], "owned_packets"), 48u);
}

TEST(PacketLawJson, LbRowsCarryTheLaw) {
  harness::LbSpec s;
  s.fleet.label = "lb";
  s.fleet.config = code::StackConfig::Pin();
  s.backends = 2;
  s.fleet.connections = 8;
  s.fleet.packets = 96;
  s.fleet.batch = 2;
  s.fleet.seed = 7;
  s.chaos = net::ChaosTimeline::parse(
      "crash@5000:backend0 reboot@60000:backend0");
  harness::LbRunSpec rs;
  rs.common.workers = 1;
  rs.rows = {s};
  rs.costs = harness::measure_lb_costs(code::StackConfig::Pin());
  const harness::Outcome o = harness::run(rs);
  const Json::Array& rows = rows_of(o.section);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(law_error_from_json(rows[0], "lb"), "");
  EXPECT_EQ(counter(rows[0], "owned_packets"), 96u);
}

}  // namespace
}  // namespace l96
