// Tests for the load-balancer tier (net/lb.h): the three-tier LbWorld
// topology, Maglev-pinned flow steering through the conn-track cache,
// drain vs health-failure semantics, empty-pool behavior, chaos-script
// installation against an LbWorld, capture of the traced forwarding
// path, and byte-identical determinism across runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "code/config.h"
#include "harness/runner.h"
#include "net/chaos.h"
#include "net/lb.h"

namespace l96 {
namespace {

using net::LbRebuildCause;
using net::LbWorld;
using net::LbWorldOptions;

code::StackConfig base_cfg() { return code::StackConfig{}; }

LbWorldOptions small_world(std::size_t backends) {
  LbWorldOptions o;
  o.backends = backends;
  return o;
}

/// The backend currently carrying wire traffic (the pinned flow's owner).
int serving_backend(LbWorld& w) {
  int found = -1;
  for (std::size_t i = 0; i < w.backend_count(); ++i) {
    if (w.backend(i).lance().rx_frames() > 0) {
      if (found >= 0) return -2;  // more than one (single-flow tests fail)
      found = static_cast<int>(i);
    }
  }
  return found;
}

TEST(LbWorld, SteersOneFlowToExactlyOneBackend) {
  const code::StackConfig cfg = base_cfg();
  LbWorld w(cfg, cfg, cfg, small_world(4));
  w.start(20);
  ASSERT_TRUE(w.run_until_roundtrips(20));

  // Exactly one backend carried the pinned flow; the LB forwarded every
  // client frame and cut every reply through.
  const int sb = serving_backend(w);
  ASSERT_GE(sb, 0);
  EXPECT_GT(w.lb().forwards(), 20u);
  EXPECT_GT(w.lb().returns_forwarded(), 20u);
  EXPECT_EQ(w.lb().drops_bad_frame(), 0u);
  EXPECT_EQ(w.lb().drops_no_backend(), 0u);
  EXPECT_TRUE(w.lb().rebuilds().empty());

  // One Maglev resolution per flow, not per packet: a single conn-track
  // miss, everything after it a fresh hit.
  const code::FlowCacheStats& st = w.lb().conn_track().stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.stale_hits, 0u);
  EXPECT_EQ(st.hits, st.lookups - 1);
  EXPECT_EQ(w.lb().slow_forwards(), 0u);

  // Health probes ran throughout without perturbing a healthy pool.
  EXPECT_GT(w.lb().health_probes(), w.backend_count());
  EXPECT_EQ(w.lb().pool_size(), 4u);
}

TEST(LbWorld, DrainKeepsPinnedFlowAndStopsNewSteering) {
  const code::StackConfig cfg = base_cfg();
  LbWorld w(cfg, cfg, cfg, small_world(3));
  w.start(1'000'000);
  ASSERT_TRUE(w.run_until_roundtrips(10));
  const int sb = serving_backend(w);
  ASSERT_GE(sb, 0);

  w.lb().drain(static_cast<std::size_t>(sb));

  // The rebuild moved the drained backend's Maglev share away without
  // touching its pinned flows.
  ASSERT_EQ(w.lb().rebuilds().size(), 1u);
  const net::LbRebuild& rb = w.lb().rebuilds().back();
  EXPECT_EQ(rb.cause, LbRebuildCause::kDrain);
  EXPECT_EQ(rb.backend, sb);
  EXPECT_GT(rb.remapped, 0u);
  EXPECT_EQ(rb.invalidated, 0u);
  EXPECT_EQ(rb.pool_size, 2u);
  EXPECT_EQ(w.lb().maglev().owned_by(static_cast<std::size_t>(sb)), 0u);

  // The established connection rides out the drain on the same backend:
  // no stale hits, no slow forwards, roundtrips keep flowing.
  const std::uint64_t before = w.client_roundtrips();
  ASSERT_TRUE(w.run_until_roundtrips(before + 10));
  EXPECT_EQ(serving_backend(w), sb);
  EXPECT_EQ(w.lb().conn_track().stats().stale_hits, 0u);
  EXPECT_EQ(w.lb().slow_forwards(), 0u);

  // Undrain restores the share; still no flow disruption.
  w.lb().undrain(static_cast<std::size_t>(sb));
  ASSERT_EQ(w.lb().rebuilds().size(), 2u);
  EXPECT_EQ(w.lb().rebuilds().back().cause, LbRebuildCause::kUndrain);
  EXPECT_EQ(w.lb().rebuilds().back().pool_size, 3u);
  EXPECT_GT(w.lb().maglev().owned_by(static_cast<std::size_t>(sb)), 0u);
}

TEST(LbWorld, HealthFailureEvictsBackendAndInvalidatesItsFlows) {
  const code::StackConfig cfg = base_cfg();
  LbWorld w(cfg, cfg, cfg, small_world(3));
  w.start(1'000'000);
  ASSERT_TRUE(w.run_until_roundtrips(10));
  const int sb = serving_backend(w);
  ASSERT_GE(sb, 0);

  w.backend(static_cast<std::size_t>(sb)).crash();

  // Probes need fail_threshold consecutive misses: detection lands within
  // (threshold + 1) intervals.
  const auto& hp = w.lb().maglev();
  (void)hp;
  const std::uint64_t deadline_us =
      (w.lb().backend_count() + 4) * 5'000 * 4;
  ASSERT_TRUE(w.run_until(
      [&] { return !w.lb().healthy(static_cast<std::size_t>(sb)); },
      deadline_us));

  ASSERT_FALSE(w.lb().rebuilds().empty());
  const net::LbRebuild& rb = w.lb().rebuilds().back();
  EXPECT_EQ(rb.cause, LbRebuildCause::kHealthDown);
  EXPECT_EQ(rb.backend, sb);
  EXPECT_GE(rb.invalidated, 1u);  // the pinned flow was stranded
  EXPECT_EQ(rb.pool_size, 2u);
  EXPECT_EQ(w.lb().maglev().owned_by(static_cast<std::size_t>(sb)), 0u);

  // Recovery: reboot + probes flip it healthy again and restore shares.
  w.backend(static_cast<std::size_t>(sb)).reboot();
  ASSERT_TRUE(w.run_until(
      [&] { return w.lb().healthy(static_cast<std::size_t>(sb)); },
      deadline_us));
  EXPECT_EQ(w.lb().rebuilds().back().cause, LbRebuildCause::kHealthUp);
  EXPECT_EQ(w.lb().rebuilds().back().pool_size, 3u);
  EXPECT_GT(w.lb().maglev().owned_by(static_cast<std::size_t>(sb)), 0u);
}

TEST(LbWorld, EmptyPoolDropsNewFlowsThenRecovers) {
  const code::StackConfig cfg = base_cfg();
  LbWorld w(cfg, cfg, cfg, small_world(2));
  w.lb().drain(0);
  w.lb().drain(1);
  EXPECT_EQ(w.lb().pool_size(), 0u);
  w.start(5);

  // With no alive backend the SYN resolves to nobody: counted drop, no
  // memoization (the flow must retry, not cache the failure).
  w.run_until([&] { return w.lb().drops_no_backend() >= 1; }, 1'000'000);
  EXPECT_GE(w.lb().drops_no_backend(), 1u);
  EXPECT_EQ(w.client_roundtrips(), 0u);
  EXPECT_EQ(w.lb().forwards(), 0u);

  // Restore one backend: the client's SYN retransmission resolves to it
  // and the connection completes against the recovered pool.
  w.lb().undrain(0);
  ASSERT_TRUE(w.run_until_roundtrips(5, 30'000'000));
  EXPECT_EQ(serving_backend(w), 0);
}

TEST(LbWorld, ChaosScriptDrivesBackendTargets) {
  const code::StackConfig cfg = base_cfg();
  LbWorld w(cfg, cfg, cfg, small_world(3));
  const net::ChaosTimeline tl = net::ChaosTimeline::parse(
      "drain@2000:backend1 undrain@8000:backend1 "
      "crash@10000:backend2 reboot@20000:backend2");
  tl.install(w, 0);
  w.start(1'000'000);

  ASSERT_TRUE(w.run_until([&] { return w.lb().drained(1); }, 1'000'000));
  EXPECT_EQ(w.lb().rebuilds().back().cause, LbRebuildCause::kDrain);
  ASSERT_TRUE(w.run_until([&] { return !w.lb().drained(1); }, 1'000'000));
  ASSERT_TRUE(
      w.run_until([&] { return w.backend(2).crashed(); }, 1'000'000));
  ASSERT_TRUE(
      w.run_until([&] { return !w.backend(2).crashed(); }, 1'000'000));
  EXPECT_EQ(w.backend(2).incarnation(), 2u);
}

TEST(LbWorld, CapturesTracedForwardingActivation) {
  const code::StackConfig cfg = base_cfg();
  LbWorld w(cfg, cfg, cfg, small_world(2));
  w.start(1'000'000);
  ASSERT_TRUE(w.run_until_roundtrips(5));

  code::PathTrace trace;
  w.lb().arm_capture(&trace);
  ASSERT_TRUE(
      w.run_until([&] { return w.lb().capture_complete(); }, 1'000'000));
  ASSERT_FALSE(trace.empty());

  // The steady-state activation walks the declared forwarding path:
  // driver intr, classify, track, rewrite, forward, driver send — and the
  // tx split lands strictly inside the event stream (post-kick work —
  // descriptor completion — overlaps the frame's flight).
  const code::CodeRegistry& reg = w.lb().registry();
  std::vector<code::FnId> want;
  for (const char* fn : {"lance_intr", "lb_classify", "lb_track",
                         "lb_rewrite", "lb_forward", "lance_send"}) {
    want.push_back(w.lb().registry().require(fn));
  }
  (void)reg;
  std::size_t next = 0;
  for (const code::Event& ev : trace.events) {
    if (next < want.size() && ev.kind == code::EventKind::kCall &&
        ev.fn == want[next]) {
      ++next;
    }
  }
  EXPECT_EQ(next, want.size());
  EXPECT_GT(w.lb().tx_split(), 0u);
  EXPECT_LT(w.lb().tx_split(), trace.events.size());

  // Steady state is the pinned fast path: no Maglev probe in the trace.
  const code::FnId maglev_fn = w.lb().registry().require("lb_maglev");
  for (const code::Event& ev : trace.events) {
    EXPECT_FALSE(ev.kind == code::EventKind::kCall && ev.fn == maglev_fn);
  }
}

TEST(LbWorld, DeterministicAcrossIdenticalRuns) {
  const code::StackConfig cfg = base_cfg();
  auto run = [&cfg] {
    LbWorld w(cfg, cfg, cfg, small_world(4));
    w.start(25);
    EXPECT_TRUE(w.run_until_roundtrips(25));
    return std::tuple{w.lb().forwards(), w.lb().returns_forwarded(),
                      w.lb().conn_track().stats().lookups,
                      serving_backend(w), w.events().now()};
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// The failover harness (harness/lb.h): cost measurement, input checks,
// packet conservation under chaos, steering verdicts, and the runner
// overload.

harness::LbSpec harness_row(const char* label, std::size_t backends) {
  harness::LbSpec s;
  s.fleet.label = label;
  s.fleet.config = code::StackConfig::Pin();
  s.backends = backends;
  s.fleet.connections = 8;
  s.fleet.packets = 96;
  s.fleet.batch = 2;
  s.fleet.seed = 7;
  return s;
}

const harness::BurstCostTable& pin_costs() {
  static const harness::BurstCostTable t =
      harness::measure_lb_costs(code::StackConfig::Pin());
  return t;
}

TEST(LbHarness, CostTableSlowRebindExceedsPinnedFastPath) {
  const harness::BurstCostTable& t = pin_costs();
  EXPECT_EQ(t.kind, net::StackKind::kLb);
  EXPECT_EQ(t.config_name, "PIN");
  EXPECT_GT(t.controller_us, 0.0);
  ASSERT_EQ(t.positions(), 1u);
  ASSERT_EQ(t.slow_us.size(), 1u);
  EXPECT_GT(t.fast_us[0], 0.0);
  // The rebind replays the same forward plus Maglev hash + probe through
  // the cold-segment standalone placements: strictly more work.
  EXPECT_GT(t.slow_us[0], t.fast_us[0]);
}

TEST(LbHarness, RunLbRejectsRowsItCannotRun) {
  const auto rejects = [](const char* token, auto&& call) {
    try {
      call();
      ADD_FAILURE() << "accepted a row that should fail on " << token;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
          << "error must name " << token << ": " << e.what();
    }
  };
  const harness::LbSpec good = harness_row("reject", 2);
  const auto rejects_row = [&](const char* token, auto&& mutate) {
    harness::LbSpec s = good;
    mutate(s);
    rejects(token, [&] { harness::run_lb(s, pin_costs()); });
  };
  using Spec = harness::LbSpec;

  rejects_row("path_inlining",
              [](Spec& s) { s.fleet.config = code::StackConfig::Std(); });
  rejects_row("backends", [](Spec& s) { s.backends = 0; });
  rejects_row("connections", [](Spec& s) { s.fleet.connections = 0; });
  rejects_row("MachineParams",
              [](Spec& s) { s.fleet.params.scrub_seed += 1; });
  // Fields a FleetSpec can express but the LB topology does not run.
  rejects_row("fleet.kind",
              [](Spec& s) { s.fleet.kind = net::StackKind::kRpc; });
  rejects_row("fleet.rules", [](Spec& s) { s.fleet.rules = 16; });
  rejects_row("fleet.churn_every", [](Spec& s) { s.fleet.churn_every = 8; });

  // The cost table carries the kind it prices: a fleet table cannot price
  // an LB row, nor an LB table a fleet row.
  const harness::BurstCostTable tcp = harness::measure_burst_costs(
      net::StackKind::kTcpIp, code::StackConfig::Pin(), 1);
  rejects("stack kind", [&] { harness::run_lb(good, tcp); });
  rejects("stack kind", [&] { harness::run_fleet(good.fleet, pin_costs()); });
}

TEST(LbHarness, ChaosFreeRowConservesAndPinsDigest) {
  const harness::LbSpec s = harness_row("chaos-free", 3);
  const harness::LbResult a = harness::run_lb(s, pin_costs());
  EXPECT_EQ(a.fleet.scheduled_sampled, s.fleet.packets);
  EXPECT_EQ(a.fleet.lost_packets, 0u);
  EXPECT_EQ(a.fleet.packets_sampled,
            a.fleet.scheduled_sampled + a.fleet.handshake_sampled);
  EXPECT_EQ(a.slow_forwards, 0u);
  EXPECT_EQ(a.fleet.cache.stale_hits, 0u);
  EXPECT_TRUE(a.rebuilds.empty());
  EXPECT_EQ(a.disrupted_samples, 0u);
  EXPECT_EQ(a.steady_samples, a.fleet.packets_sampled);
  EXPECT_GT(a.fleet.latency.p50, 2 * pin_costs().controller_us);

  const harness::LbResult b = harness::run_lb(s, pin_costs());
  EXPECT_EQ(a.fleet.sample_digest, b.fleet.sample_digest);
  EXPECT_EQ(a.fleet.sim_us, b.fleet.sim_us);
}

TEST(LbHarness, DrainWindowLosesNoEstablishedFlowPackets) {
  harness::LbSpec s = harness_row("drain", 3);
  s.chaos = net::ChaosTimeline::parse(
      "drain@5000:backend1 undrain@30000:backend1");
  const harness::LbResult r = harness::run_lb(s, pin_costs());

  // Drain is hitless by construction: pinned flows ride out the removal.
  EXPECT_EQ(r.fleet.lost_packets, 0u);
  EXPECT_EQ(r.fleet.reconnects, 0u);
  EXPECT_EQ(r.fleet.scheduled_sampled, s.fleet.packets);
  EXPECT_EQ(r.fleet.cache.stale_hits, 0u);

  ASSERT_EQ(r.rebuilds.size(), 2u);
  EXPECT_EQ(r.rebuilds[0].cause, net::LbRebuildCause::kDrain);
  EXPECT_EQ(r.rebuilds[0].invalidated, 0u);
  EXPECT_GT(r.rebuilds[0].remapped, 0u);
  EXPECT_EQ(r.rebuilds[1].cause, net::LbRebuildCause::kUndrain);

  ASSERT_EQ(r.windows.size(), 1u);
  EXPECT_TRUE(r.windows[0].steered_away);
  EXPECT_EQ(r.windows[0].tta_us, 0.0);  // administrative: immediate
  EXPECT_TRUE(r.windows[0].restored);
}

TEST(LbHarness, CrashFailoverIsDetectedSteeredAndRestored) {
  harness::LbSpec s = harness_row("crash", 2);
  s.chaos = net::ChaosTimeline::parse(
      "crash@5000:backend0 reboot@60000:backend0");
  const harness::LbResult r = harness::run_lb(s, pin_costs());

  // Detection needs fail_threshold consecutive probe misses, so the
  // time-to-steer-away is positive but bounded by the probe cadence.
  ASSERT_EQ(r.windows.size(), 1u);
  EXPECT_TRUE(r.windows[0].steered_away);
  EXPECT_GT(r.windows[0].tta_us, 0.0);
  EXPECT_LE(r.windows[0].tta_us,
            static_cast<double>((s.health.fail_threshold + 2) *
                                s.health.interval_us));
  EXPECT_TRUE(r.windows[0].restored);
  EXPECT_EQ(r.backend_incarnations, s.backends + 1);  // one reboot

  // The eviction rebuild invalidated the crashed backend's pinned flows.
  bool saw_down = false;
  for (const net::LbRebuild& rb : r.rebuilds) {
    if (rb.cause == net::LbRebuildCause::kHealthDown) {
      saw_down = true;
      EXPECT_EQ(rb.backend, 0);
    }
  }
  EXPECT_TRUE(saw_down);

  // Conservation holds under loss, and the disruption shows up in the
  // phase split.
  EXPECT_EQ(r.fleet.scheduled_sampled + r.fleet.lost_packets, s.fleet.packets);
  EXPECT_GT(r.disrupted_samples, 0u);
}

TEST(LbHarness, RunnerOverloadEmitsSchemaAndIsWorkerInvariant) {
  harness::LbRunSpec rs;
  rs.costs = pin_costs();
  const harness::LbSpec row = harness_row("runner", 2);
  rs.rows = {row, row};
  rs.common.workers = 1;
  const harness::Outcome one = harness::run(rs);
  rs.common.workers = 3;
  const harness::Outcome three = harness::run(rs);

  EXPECT_EQ(one.schema, "l96.lb.v2");
  ASSERT_EQ(one.lb.size(), 2u);
  ASSERT_EQ(three.lb.size(), 2u);
  EXPECT_EQ(one.lb[0].fleet.sample_digest, three.lb[0].fleet.sample_digest);
  EXPECT_EQ(one.lb[1].fleet.sample_digest, three.lb[1].fleet.sample_digest);
  EXPECT_EQ(one.section.dump(), three.section.dump());

  // Each row records the conn track it ran under — the LB's own default
  // capacity and the cost model — and the health seed.
  const std::string dump = one.section.dump();
  EXPECT_NE(dump.find("\"cache_capacity\":1024,"), std::string::npos);
  EXPECT_NE(dump.find("\"cache_costs\":{\"measured\":false,"),
            std::string::npos);
  EXPECT_NE(dump.find("\"recover_threshold\":2,\"seed\":1}"),
            std::string::npos);
}

}  // namespace
}  // namespace l96
