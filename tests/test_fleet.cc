// Tests for the multi-connection fleet engine (harness/fleet.h):
// determinism across runs / worker counts / seeds, the stale-hit
// slow-path fallback, the Zipf schedule, burst scheduling with the
// position-indexed cost table, MachineParams keying, and the packet-
// conservation counters.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "harness/runner.h"
#include "harness/sweep.h"

namespace l96 {
namespace {

using harness::BurstCostTable;
using harness::FleetSpec;
using harness::ZipfSampler;

// Fleet pricing needs one trace capture + a handful of machine replays;
// share the tables across the tests in this file.
const BurstCostTable& tcp_table() {
  static const BurstCostTable table = harness::measure_burst_costs(
      net::StackKind::kTcpIp, code::StackConfig::All(), 3);
  return table;
}

const BurstCostTable& tcp_table_one() {
  static const BurstCostTable table = harness::measure_burst_costs(
      net::StackKind::kTcpIp, code::StackConfig::All(), 1);
  return table;
}

/// The rows through harness::run on `workers` threads.
std::vector<harness::FleetResult> run_rows(const std::vector<FleetSpec>& rows,
                                           unsigned workers) {
  harness::FleetRunSpec rs;
  rs.common.workers = workers;
  rs.rows = rows;
  rs.costs = tcp_table();
  return harness::run(rs).fleet;
}

FleetSpec small_spec() {
  FleetSpec spec;
  spec.label = "test";
  spec.kind = net::StackKind::kTcpIp;
  spec.config = code::StackConfig::All();
  spec.connections = 4;
  spec.packets = 32;
  spec.zipf_s = 1.1;
  spec.seed = 5;
  spec.scheme = code::FlowCacheScheme::kLru;
  spec.cache_capacity = 8;
  spec.churn_every = 10;
  return spec;
}

TEST(ZipfSamplerTest, DeterministicAndSkewed) {
  ZipfSampler a(16, 1.2, 7), b(16, 1.2, 7), c(16, 1.2, 8);
  std::vector<std::size_t> sa, sb, sc;
  for (int i = 0; i < 200; ++i) {
    sa.push_back(a.next());
    sb.push_back(b.next());
    sc.push_back(c.next());
  }
  EXPECT_EQ(sa, sb);  // same seed, same stream
  EXPECT_NE(sa, sc);  // different seed diverges

  // Skew: flow 0 dominates under s=1.2; under s=0 the draw is uniform.
  std::size_t hot_skewed = 0, hot_uniform = 0;
  ZipfSampler skewed(16, 1.2, 3), uniform(16, 0.0, 3);
  for (int i = 0; i < 2000; ++i) {
    hot_skewed += skewed.next() == 0;
    hot_uniform += uniform.next() == 0;
  }
  EXPECT_GT(hot_skewed, 400u);   // ~29% analytically
  EXPECT_LT(hot_uniform, 200u);  // ~6.25% analytically
  EXPECT_THROW(ZipfSampler(0, 1.0, 1), std::invalid_argument);
}

TEST(ZipfSamplerTest, SingleFlowAlwaysDrawsZero) {
  ZipfSampler one(1, 1.2, 42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(one.next(), 0u);
}

TEST(ZipfSamplerTest, UniformDrawPassesChiSquared) {
  // s = 0 must be uniform over the flows, not merely "less skewed": 16
  // bins x 4000 draws, chi-squared with 15 degrees of freedom.  The 0.001
  // critical value is 37.7; the sampler is deterministic, so this is a
  // regression bound, not a flaky statistical test.
  constexpr std::size_t kBins = 16;
  constexpr int kDraws = 4000;
  ZipfSampler uniform(kBins, 0.0, 12345);
  std::vector<int> counts(kBins, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[uniform.next()];
  const double expected = static_cast<double>(kDraws) / kBins;
  double chi2 = 0;
  for (int c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 37.7) << "uniform draw is measurably non-uniform";
}

TEST(ZipfSamplerTest, LargeNTailIsReachable) {
  // The inverse-CDF lookup must keep tail precision at large n: the final
  // CDF entry is pinned to exactly 1.0, draws stay in range, and under a
  // uniform draw the top 1/16 of a 65536-flow population is hit often.
  constexpr std::size_t kN = 65536;
  ZipfSampler big(kN, 0.0, 99);
  std::size_t top_tail = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::size_t k = big.next();
    ASSERT_LT(k, kN);
    top_tail += k >= kN - kN / 16;
  }
  EXPECT_GT(top_tail, 100u);  // expected ~250 of 4000

  // Skewed large-n draw also stays in range (the un-normalized CDF spans
  // many orders of magnitude; rounding must not push lookups past n-1).
  ZipfSampler skew(kN, 1.4, 7);
  for (int i = 0; i < 4000; ++i) ASSERT_LT(skew.next(), kN);
}

TEST(BurstCostTableTest, SlowPathPricedAboveInlinedFastPath) {
  const BurstCostTable& t = tcp_table();
  ASSERT_EQ(t.positions(), 3u);
  EXPECT_GT(t.fast_us.front(), 0.0);
  EXPECT_GT(t.slow_us.front(), t.fast_us.front())
      << "standalone slow-path replay must cost more than the inlined "
         "composite";
  EXPECT_GT(t.controller_us, 0.0);
}

TEST(BurstCostTableTest, PositionZeroIsIndependentOfTableDepth) {
  // A 1-position table and a deeper one must price first-in-burst packets
  // identically: position 0 does not depend on how many positions were
  // measured.
  EXPECT_DOUBLE_EQ(tcp_table_one().controller_us, tcp_table().controller_us);
  EXPECT_DOUBLE_EQ(tcp_table_one().fast_us.front(),
                   tcp_table().fast_us.front());
  EXPECT_DOUBLE_EQ(tcp_table_one().slow_us.front(),
                   tcp_table().slow_us.front());
}

TEST(BurstCostTableTest, TableClampsPastMeasuredPositions) {
  const BurstCostTable& t = tcp_table();
  EXPECT_DOUBLE_EQ(t.fast_at(t.positions() + 5), t.fast_us.back());
  EXPECT_DOUBLE_EQ(t.slow_at(t.positions() + 5), t.slow_us.back());
  EXPECT_DOUBLE_EQ(t.fast_at(0), t.fast_us.front());
}

TEST(BurstCostTableTest, BurstPositionsAmortize) {
  const BurstCostTable& t = tcp_table();
  for (std::size_t p = 1; p < t.positions(); ++p) {
    EXPECT_LE(t.fast_us[p], t.fast_us[p - 1]) << "position " << p;
  }
  EXPECT_LT(t.fast_us.back(), t.fast_us.front())
      << "back-to-back replays must amortize the scrubbed warm-up";
}

TEST(FleetTest, DeterministicAcrossRunsAndWorkerCounts) {
  std::vector<FleetSpec> specs;
  for (auto scheme : {code::FlowCacheScheme::kOneBehind,
                      code::FlowCacheScheme::kLru}) {
    for (double s : {0.0, 1.2}) {
      FleetSpec spec = small_spec();
      spec.scheme = scheme;
      spec.zipf_s = s;
      specs.push_back(spec);
    }
  }
  const auto r1 = run_rows(specs, 1);
  const auto r3 = run_rows(specs, 3);
  ASSERT_EQ(r1.size(), specs.size());
  ASSERT_EQ(r3.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(r1[i].sample_digest, r3[i].sample_digest) << specs[i].label;
    EXPECT_EQ(r1[i].packets_sampled, r3[i].packets_sampled);
    EXPECT_EQ(r1[i].cache.hits, r3[i].cache.hits);
    EXPECT_EQ(r1[i].cache.stale_hits, r3[i].cache.stale_hits);
    EXPECT_DOUBLE_EQ(r1[i].latency.p999, r3[i].latency.p999);
    EXPECT_DOUBLE_EQ(r1[i].sim_us, r3[i].sim_us);
  }

  // Same spec, different schedule seed: the sample stream diverges.  Use
  // the one-behind scheme — its hit pattern tracks the flow order, so a
  // different schedule is visible in the samples.  (Under LRU with every
  // flow resident, all schedules price identically — which is correct.)
  FleetSpec reseeded = small_spec();
  reseeded.scheme = code::FlowCacheScheme::kOneBehind;
  reseeded.zipf_s = 1.2;
  reseeded.seed = 6;
  EXPECT_NE(harness::run_fleet(reseeded, tcp_table()).sample_digest,
            r1[1].sample_digest);
}

TEST(FleetTest, BatchOneIsByteIdenticalUnderAnyTableDepth) {
  // Batch 1 means every packet is first-in-burst: only position 0 of the
  // table is ever read, so a 3-position table and the flat 1-position
  // table must produce byte-identical sample streams — the pre-refactor
  // engine's numbers survive the burst refactor exactly.
  const FleetSpec spec = small_spec();  // batch defaults to 1, with churn
  const auto deep = harness::run_fleet(spec, tcp_table());
  const auto flat = harness::run_fleet(spec, tcp_table_one());
  EXPECT_EQ(deep.sample_digest, flat.sample_digest);
  EXPECT_EQ(deep.packets_sampled, flat.packets_sampled);
  EXPECT_EQ(deep.slow_packets, flat.slow_packets);
  EXPECT_DOUBLE_EQ(deep.latency.mean, flat.latency.mean);
}

TEST(FleetTest, BurstSchedulingAmortizesLatency) {
  FleetSpec one = small_spec();
  one.churn_every = 0;
  one.packets = 64;
  FleetSpec burst = one;
  burst.batch = 16;

  const auto r1 = harness::run_fleet(one, tcp_table());
  const auto r16 = harness::run_fleet(burst, tcp_table());

  // Same packet count — the burst positions amortize the processing cost,
  // so the mean must drop strictly.
  EXPECT_EQ(r16.packets_sampled, r1.packets_sampled);
  EXPECT_LT(r16.latency.mean, r1.latency.mean);
  // First-in-burst packets still pay at least the amortized floor plus the
  // full first-packet processing cost.
  EXPECT_GE(r16.latency.max, tcp_table().controller_us +
                                 tcp_table().fast_us.front());
  EXPECT_EQ(r1.bursts, r1.spec.packets);
  EXPECT_EQ(r16.bursts, r16.spec.packets / 16);
}

TEST(FleetTest, ConservationCountersAddUp) {
  for (std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
    FleetSpec spec = small_spec();  // churn_every = 10 over 32 packets
    spec.batch = batch;
    const auto r = harness::run_fleet(spec, tcp_table());
    EXPECT_EQ(r.spec.packets, r.scheduled_sampled + r.dropped_in_churn)
        << "batch " << batch;
    EXPECT_EQ(r.packets_sampled, r.scheduled_sampled + r.handshake_sampled)
        << "batch " << batch;
    EXPECT_GT(r.churns, 0u);
    EXPECT_GT(r.handshake_sampled, 0u)
        << "churn handshakes must be counted separately, not folded into "
           "the scheduled packets";
  }
}

TEST(FleetTest, RejectsMismatchedMachineParams) {
  // Regression: a grid row sweeping MachineParams must not silently reuse
  // a cost table measured under the defaults.
  FleetSpec spec = small_spec();
  spec.params.mem.dcache_bytes *= 2;
  EXPECT_THROW(harness::run_fleet(spec, tcp_table()), std::invalid_argument);
  try {
    harness::run_fleet(spec, tcp_table());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("MachineParams"), std::string::npos)
        << "error must name the mismatch: " << e.what();
  }

  // The runner rejects the bad row too (first error wins).
  EXPECT_THROW(run_rows({small_spec(), spec}, 2), std::invalid_argument);

  // A mismatched stack config is equally rejected.
  FleetSpec other_cfg = small_spec();
  other_cfg.config = code::StackConfig::Pin();
  EXPECT_THROW(harness::run_fleet(other_cfg, tcp_table()),
               std::invalid_argument);
}

TEST(FleetTest, ParamsKeyCoversEveryField) {
  using M = harness::MachineParams;
  const M base;
  EXPECT_EQ(harness::machine_params_key(base),
            harness::machine_params_key(M::defaults()));
  // One mutation per hashed field; every key must differ from the base's
  // and from every other mutation's.
  const std::vector<std::pair<const char*, void (*)(M&)>> mutations = {
      {"mem.icache_bytes", [](M& m) { m.mem.icache_bytes *= 2; }},
      {"mem.dcache_bytes", [](M& m) { m.mem.dcache_bytes *= 2; }},
      {"mem.bcache_bytes", [](M& m) { m.mem.bcache_bytes *= 2; }},
      {"mem.block_bytes", [](M& m) { m.mem.block_bytes *= 2; }},
      {"mem.wbuf_depth", [](M& m) { m.mem.wbuf_depth += 1; }},
      {"mem.b_hit_cycles", [](M& m) { m.mem.b_hit_cycles += 1; }},
      {"mem.b_hit_seq_cycles", [](M& m) { m.mem.b_hit_seq_cycles += 1; }},
      {"mem.dram_cycles", [](M& m) { m.mem.dram_cycles += 1; }},
      {"mem.wbuf_retire_cycles", [](M& m) { m.mem.wbuf_retire_cycles += 1; }},
      {"mem.ifetch_prefetch_next",
       [](M& m) { m.mem.ifetch_prefetch_next = !m.mem.ifetch_prefetch_next; }},
      {"cpu.taken_branch_penalty",
       [](M& m) { m.cpu.taken_branch_penalty += 1; }},
      {"cpu.imul_penalty", [](M& m) { m.cpu.imul_penalty += 1; }},
      {"cpu.dual_issue", [](M& m) { m.cpu.dual_issue = !m.cpu.dual_issue; }},
      {"cpu.pair_success_permille",
       [](M& m) { m.cpu.pair_success_permille += 1; }},
      {"cpu.frequency_hz", [](M& m) { m.cpu.frequency_hz += 1; }},
      {"warmup_roundtrips", [](M& m) { m.warmup_roundtrips += 1; }},
      {"warmup_passes", [](M& m) { m.warmup_passes += 1; }},
      {"scrub_fraction", [](M& m) { m.scrub_fraction -= 0.1; }},
      {"scrub_fraction_d", [](M& m) { m.scrub_fraction_d += 0.1; }},
      {"scrub_seed", [](M& m) { m.scrub_seed += 1; }},
  };
  std::map<std::uint64_t, const char*> seen = {
      {harness::machine_params_key(base), "base"}};
  for (const auto& [field, mutate] : mutations) {
    M m = base;
    mutate(m);
    const auto [it, fresh] =
        seen.emplace(harness::machine_params_key(m), field);
    EXPECT_TRUE(fresh) << field << " collides with " << it->second;
  }
}

TEST(FleetTest, ChurnProducesStaleHitsThatFallBackSlow) {
  const BurstCostTable& costs = tcp_table();
  const FleetSpec spec = small_spec();  // churn_every = 10 over 32 packets
  const auto r = harness::run_fleet(spec, costs);

  EXPECT_GE(r.churns, 2u);
  EXPECT_GE(r.cache.stale_hits, r.churns)
      << "each reopened flow's first frame must hit the stale entry";
  EXPECT_GE(r.slow_packets, r.cache.stale_hits)
      << "every stale hit must route through the standalone slow path";
  // The tail carries the slow-path price: controller + lookup + slow_us.
  EXPECT_GT(r.latency.max, costs.controller_us + costs.slow_us.front());
  // The floor is the fast path: controller + cheapest lookup + fast_us.
  EXPECT_GE(r.latency.p50, costs.controller_us + costs.fast_us.front());
  EXPECT_GT(r.packets_sampled, spec.packets);  // churn handshakes included

  // Without churn, no connection ever unbinds: zero stale traffic.
  FleetSpec quiet = small_spec();
  quiet.churn_every = 0;
  const auto q = harness::run_fleet(quiet, costs);
  EXPECT_EQ(q.cache.stale_hits, 0u);
  EXPECT_EQ(q.slow_packets, 0u);
  EXPECT_EQ(q.churns, 0u);
  EXPECT_EQ(q.packets_sampled, quiet.packets);
  EXPECT_EQ(q.dropped_in_churn, 0u);
  EXPECT_EQ(q.handshake_sampled, 0u);
}

TEST(FleetTest, RpcFleetRunsAndCaches) {
  const BurstCostTable costs = harness::measure_burst_costs(
      net::StackKind::kRpc, code::StackConfig::All(), 2);
  FleetSpec spec;
  spec.label = "rpc-test";
  spec.kind = net::StackKind::kRpc;
  spec.config = code::StackConfig::All();
  spec.connections = 4;
  spec.packets = 24;
  spec.batch = 4;
  spec.zipf_s = 1.0;
  spec.seed = 9;
  spec.scheme = code::FlowCacheScheme::kLru;
  spec.cache_capacity = 4;
  const auto r = harness::run_fleet(spec, costs);
  EXPECT_EQ(r.packets_sampled, spec.packets);
  EXPECT_EQ(r.scheduled_sampled, spec.packets);
  EXPECT_EQ(r.bursts, spec.packets / spec.batch);
  EXPECT_GT(r.cache.hit_ratio(), 0.0);
  EXPECT_EQ(r.cache.stale_hits, 0u);
  EXPECT_GT(r.latency.mean, costs.controller_us);
}

TEST(FleetTest, RejectsNonInlinedConfigAndEmptySchedules) {
  FleetSpec spec = small_spec();
  spec.config = code::StackConfig::Std();  // no path_inlining
  EXPECT_THROW(harness::run_fleet(spec, tcp_table()), std::invalid_argument);
  spec = small_spec();
  spec.packets = 0;
  EXPECT_THROW(harness::run_fleet(spec, tcp_table()), std::invalid_argument);
  spec = small_spec();
  spec.connections = 0;
  EXPECT_THROW(harness::run_fleet(spec, tcp_table()), std::invalid_argument);
}

TEST(FleetTest, ScaledRuleSetRowRunsAndStaysDeterministic) {
  // A fleet row with a production-scale rule table: the server swaps its
  // classifier for the generated one (decoys never match fleet traffic,
  // so the functional results — hits, conservation — are those of the
  // default classifier), and the digest is worker-count independent.
  FleetSpec spec = small_spec();
  spec.rules = 128;
  spec.rule_seed = 3;
  spec.cache_costs = code::FlowCacheCosts{.hit_us = 0.1,
                                          .probe_us = 0.4,
                                          .per_rule_us = 0.02,
                                          .measured = true};
  const auto r1 = run_rows({spec}, 1);
  const auto r2 = run_rows({spec}, 2);
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r1[0].sample_digest, r2[0].sample_digest);
  EXPECT_GT(r1[0].cache.hits, 0u);
  // Every fleet frame matches the real fast path and carries a full key:
  // no scan may end unmatched at any rule-table scale.
  EXPECT_EQ(r1[0].cache.unmatched_scans, 0u);
  EXPECT_EQ(r1[0].spec.rules, 128u);

  // The 129-path set activates the tuple engine, and fleet traffic never
  // lands in a decoy bucket — so every miss scan verifies exactly the
  // real path's rules, the same count the default one-path classifier
  // examines.  Scan work stays flat as the rule table grows; a linear
  // scan would have waded through all 128 decoys per miss.
  FleetSpec plain = spec;
  plain.rules = 0;
  const auto p = run_rows({plain}, 1);
  EXPECT_EQ(r1[0].cache.rules_examined, p[0].cache.rules_examined);
  EXPECT_EQ(r1[0].cache.misses, p[0].cache.misses);
  EXPECT_EQ(r1[0].cache.hits, p[0].cache.hits)
      << "decoys must never match fleet traffic";
}

TEST(FleetTest, FleetJsonSectionIsSchemaVersioned) {
  const auto r = harness::run_fleet(small_spec(), tcp_table());
  const harness::Json section = harness::fleet_json(tcp_table(), {r});
  ASSERT_TRUE(section.is_object());
  const auto* schema = section.find("schema");
  ASSERT_NE(schema, nullptr);
  ASSERT_NE(schema->as_string(), nullptr);
  EXPECT_EQ(*schema->as_string(), "l96.fleet.v2");
  const auto* costs = section.find("costs");
  ASSERT_NE(costs, nullptr);
  const auto* fast = costs->find("fast_us");
  ASSERT_NE(fast, nullptr);
  EXPECT_EQ(fast->size(), tcp_table().positions());
  const auto* rows = section.find("rows");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->size(), 1u);
  // Attachable to a sweep row (validates the section contract).
  harness::SweepOutcome outcome;
  EXPECT_NO_THROW(outcome.extra_json("fleet", section));
}

}  // namespace
}  // namespace l96
