// Tests for the extensions beyond the paper's implemented system:
// connection-time cloning specialization, layout, outlining and i-cache-size
// ablation invariants, and cross-configuration determinism of the whole
// harness.
#include <gtest/gtest.h>

#include <cmath>

#include "harness/experiment.h"

namespace l96 {
namespace {

using code::StackConfig;

TEST(ConnectClone, ShrinksTraceOnlyWithCloning) {
  StackConfig base = StackConfig::Clo();
  StackConfig conn = StackConfig::Clo();
  conn.clone_at_connect = true;
  auto r_base =
      harness::run_config(net::StackKind::kTcpIp, base, base);
  auto r_conn =
      harness::run_config(net::StackKind::kTcpIp, conn, conn);
  EXPECT_LT(r_conn.client.instructions, r_base.client.instructions);
  EXPECT_LT(r_conn.client.static_hot_words, r_base.client.static_hot_words);

  // Without cloning the flag is inert.
  StackConfig out = StackConfig::Out();
  StackConfig out_conn = StackConfig::Out();
  out_conn.clone_at_connect = true;
  auto r_out = harness::run_config(net::StackKind::kTcpIp, out, out);
  auto r_out_conn =
      harness::run_config(net::StackKind::kTcpIp, out_conn, out_conn);
  EXPECT_EQ(r_out.client.instructions, r_out_conn.client.instructions);
}

TEST(ConnectClone, ComposesWithPathInlining) {
  StackConfig all = StackConfig::All();
  StackConfig all_conn = StackConfig::All();
  all_conn.clone_at_connect = true;
  auto r_all = harness::run_config(net::StackKind::kTcpIp, all, all);
  auto r_conn =
      harness::run_config(net::StackKind::kTcpIp, all_conn, all_conn);
  EXPECT_LT(r_conn.client.instructions, r_all.client.instructions);
  EXPECT_LE(r_conn.te_us, r_all.te_us + 0.5);
}

TEST(ConnectClone, DoesNotChangeFunctionalBehaviour) {
  StackConfig conn = StackConfig::All();
  conn.clone_at_connect = true;
  net::World w(net::StackKind::kTcpIp, conn, conn);
  w.start(10);
  ASSERT_TRUE(w.run_until_roundtrips(10));
  EXPECT_EQ(w.client_roundtrips(), 10u);
}

TEST(LayoutAblation, PessimalNeverBeatsBipartite) {
  for (auto kind : {net::StackKind::kTcpIp, net::StackKind::kRpc}) {
    const auto scfg = kind == net::StackKind::kRpc
                          ? StackConfig::All()
                          : StackConfig::Clo();
    auto bip =
        harness::run_config(kind, StackConfig::Clo(), scfg);
    auto bad =
        harness::run_config(kind, StackConfig::Bad(), scfg);
    EXPECT_GT(bad.client.tp_us, 1.5 * bip.client.tp_us);
  }
}

TEST(LayoutAblation, RandomBetweenBipartiteAndPessimal) {
  StackConfig rnd = StackConfig::Clo();
  rnd.layout = code::LayoutKind::kRandom;
  auto r_rnd = harness::run_config(net::StackKind::kTcpIp, rnd, rnd);
  auto r_bip = harness::run_config(net::StackKind::kTcpIp,
                                   StackConfig::Clo(), StackConfig::Clo());
  auto r_bad = harness::run_config(net::StackKind::kTcpIp,
                                   StackConfig::Bad(), StackConfig::Bad());
  EXPECT_GE(r_rnd.client.tp_us, r_bip.client.tp_us * 0.98);
  EXPECT_LT(r_rnd.client.tp_us, r_bad.client.tp_us);
}

TEST(LayoutAblation, MicroPositioningReducesReplacementMisses) {
  // The trace-driven optimizer should at least beat the shuffled link order
  // on its own objective (cold replacement misses).
  StackConfig micro = StackConfig::Clo();
  micro.layout = code::LayoutKind::kMicroPosition;
  auto r_micro =
      harness::run_config(net::StackKind::kTcpIp, micro, micro);
  auto r_out = harness::run_config(net::StackKind::kTcpIp,
                                   StackConfig::Out(), StackConfig::Out());
  EXPECT_LE(r_micro.client.cold.icache.repl_misses,
            r_out.client.cold.icache.repl_misses);
}

// Outlining matters "primarily as a means to greatly improve cloning":
// outline + clone (CLO) beats clone-only on steady mCPI on both stacks.
TEST(OutlineAblation, OutliningImprovesCloning) {
  for (auto kind : {net::StackKind::kTcpIp, net::StackKind::kRpc}) {
    const StackConfig scfg = kind == net::StackKind::kRpc
                                 ? StackConfig::All()
                                 : StackConfig::Clo();
    StackConfig clone_only = StackConfig::Clo();
    clone_only.outlining = false;
    const harness::Experiment e(kind, StackConfig::Clo(), scfg);
    const auto params = harness::MachineParams::defaults();
    const auto both = e.reconfigured(StackConfig::Clo(), scfg, params).run();
    const auto clone = e.reconfigured(clone_only, scfg, params).run();
    EXPECT_LT(both.client.steady.mcpi(), clone.client.steady.mcpi())
        << net::to_string(kind);
  }
}

// Section 3.2's closing observation: once the path fits the i-cache the
// layout strategy stops mattering, so the bipartite/linear Tp gap at
// 64 KiB is below 0.5% and smaller than at the default 8 KiB.
TEST(CacheSizeAblation, LayoutGapVanishesOnceThePathFits) {
  StackConfig linear = StackConfig::Clo();
  linear.layout = code::LayoutKind::kLinear;
  const harness::Experiment e(net::StackKind::kTcpIp, StackConfig::Clo(),
                              StackConfig::Clo());
  auto gap = [&](std::uint32_t kib) {
    harness::MachineParams params;
    params.mem.icache_bytes = kib * 1024;
    const double bip =
        e.reconfigured(StackConfig::Clo(), StackConfig::Clo(), params)
            .run()
            .client.tp_us;
    const double lin =
        e.reconfigured(linear, linear, params).run().client.tp_us;
    return std::abs(bip - lin) / lin;
  };
  const double at8 = gap(8);
  const double at64 = gap(64);
  EXPECT_LT(at64, at8);
  EXPECT_LT(at64, 0.005);
}

TEST(Determinism, IdenticalRunsProduceIdenticalResults) {
  auto run = [] {
    return harness::run_config(net::StackKind::kTcpIp, StackConfig::All(),
                               StackConfig::All());
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.client.instructions, b.client.instructions);
  EXPECT_EQ(a.client.steady.cycles(), b.client.steady.cycles());
  EXPECT_EQ(a.client.cold.icache.misses, b.client.cold.icache.misses);
  EXPECT_DOUBLE_EQ(a.te_us, b.te_us);
}

TEST(Determinism, ClientAndServerTracesSimilarLength) {
  harness::Experiment e(net::StackKind::kTcpIp, StackConfig::Std(),
                        StackConfig::Std());
  auto r = e.run();
  // Symmetric ping-pong: both sides do nearly the same work.
  const double ratio = static_cast<double>(r.server.instructions) /
                       static_cast<double>(r.client.instructions);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

}  // namespace
}  // namespace l96
