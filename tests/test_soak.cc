// Chaos soak: thousands of roundtrips under a seeded fault schedule with
// end-to-end payload integrity, clean teardown (zero pending events, zero
// live connections), frame conservation, and byte-identical replay.
// These are the PR's acceptance-criteria runs: >= 5000 roundtrips per
// stack at >= 5% combined drop+corrupt+duplicate.
#include <gtest/gtest.h>

#include "harness/soak.h"

namespace l96 {
namespace {

harness::SoakSpec chaos_spec(net::StackKind kind, std::uint64_t roundtrips,
                             std::uint64_t seed) {
  harness::SoakSpec s;
  s.kind = kind;
  s.roundtrips = roundtrips;
  s.msg_bytes = 32;
  s.plan.seed = seed;
  s.plan.start_after_frames = 4;  // let the handshake establish cleanly
  for (int p = 0; p < 2; ++p) {
    s.plan.rates[p] = {.drop = 0.02, .corrupt = 0.02, .duplicate = 0.01};
  }
  return s;
}

TEST(Soak, TcpFiveThousandRoundtripsAtFivePercent) {
  const auto r = harness::run_soak(chaos_spec(net::StackKind::kTcpIp, 5000, 7));
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.roundtrips, 5000u);
  EXPECT_EQ(r.integrity_failures, 0u);
  EXPECT_EQ(r.pending_events, 0u);
  EXPECT_EQ(r.live_connections, 0u);
  EXPECT_EQ(r.reassemblies_pending, 0u);
  EXPECT_TRUE(r.conserved);
  // The schedule actually bit: faults fired and TCP recovered from them.
  EXPECT_GT(r.faults.drops, 0u);
  EXPECT_GT(r.faults.corrupts, 0u);
  EXPECT_GT(r.faults.duplicates, 0u);
  EXPECT_GT(r.tcp_retransmits, 0u);
  EXPECT_GT(r.tcp_bad_checksums, 0u);
}

TEST(Soak, RpcFiveThousandRoundtripsAtFivePercent) {
  const auto r = harness::run_soak(chaos_spec(net::StackKind::kRpc, 5000, 7));
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.roundtrips, 5000u);
  EXPECT_EQ(r.integrity_failures, 0u);
  EXPECT_EQ(r.failed_calls, 0u);
  EXPECT_EQ(r.pending_events, 0u);
  EXPECT_EQ(r.busy_channels, 0u);
  EXPECT_TRUE(r.conserved);
  EXPECT_GT(r.chan_retransmits, 0u);
  EXPECT_GT(r.blast_bad_frames, 0u);
}

TEST(Soak, RpcMultiFragmentMessagesSurviveFaults) {
  // 2500-byte arguments traverse BLAST fragmentation + NACK recovery.
  auto s = chaos_spec(net::StackKind::kRpc, 800, 11);
  s.msg_bytes = 2500;
  const auto r = harness::run_soak(s);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.integrity_failures, 0u);
  EXPECT_EQ(r.reassemblies_pending, 0u);
  EXPECT_GT(r.blast_nacks, 0u);
}

TEST(Soak, ReplayIsByteIdentical) {
  // Same (seed, plan) => same virtual timeline, same fault log, same
  // recovery counts: the whole report reproduces, not just the outcome.
  const auto spec = chaos_spec(net::StackKind::kTcpIp, 800, 1234);
  const auto r1 = harness::run_soak(spec);
  const auto r2 = harness::run_soak(spec);
  ASSERT_TRUE(r1.ok()) << r1.summary();
  EXPECT_EQ(r1.summary(), r2.summary());
  EXPECT_EQ(r1.fault_log_hash, r2.fault_log_hash);
  EXPECT_EQ(r1.virtual_us, r2.virtual_us);
}

TEST(Soak, DifferentSeedsProduceDifferentSchedules) {
  auto s1 = chaos_spec(net::StackKind::kTcpIp, 400, 1);
  auto s2 = chaos_spec(net::StackKind::kTcpIp, 400, 2);
  const auto r1 = harness::run_soak(s1);
  const auto r2 = harness::run_soak(s2);
  EXPECT_TRUE(r1.ok()) << r1.summary();
  EXPECT_TRUE(r2.ok()) << r2.summary();
  EXPECT_NE(r1.fault_log_hash, r2.fault_log_hash);
}

TEST(Soak, TcpChaosPhaseSurvivesBlackoutAndCrashReboot) {
  // Mid-soak failure domains on top of the seeded fault schedule: a 100 ms
  // link blackout at the 1/3 mark and a 200 ms server crash/reboot at the
  // 2/3 mark.  The client rides the blackout on its rexmt timers, notices
  // the dead incarnation via keepalive, reconnects, and still finishes
  // with every clean-teardown invariant intact.
  auto s = chaos_spec(net::StackKind::kTcpIp, 1500, 7);
  s.chaos = true;
  const auto r = harness::run_soak(s);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.roundtrips, 1500u);
  EXPECT_EQ(r.integrity_failures, 0u);
  EXPECT_EQ(r.pending_events, 0u);
  EXPECT_EQ(r.live_connections, 0u);
  EXPECT_TRUE(r.conserved);
  EXPECT_GT(r.blackout_drops, 0u);       // the blackout actually bit
  EXPECT_GE(r.reconnects, 1u);           // the crash was noticed and repaired
  EXPECT_EQ(r.server_incarnation, 2u);   // exactly one reboot
  // Replay: the failure domains are part of the deterministic timeline.
  const auto r2 = harness::run_soak(s);
  EXPECT_EQ(r.summary(), r2.summary());
}

TEST(Soak, RpcChaosPhaseRidesOutTheBlackout) {
  // The RPC stack has no reconnect machinery, so its chaos phase is
  // blackout-only: CHAN's retry budget covers the outage and no call
  // fails.
  auto s = chaos_spec(net::StackKind::kRpc, 1500, 7);
  s.chaos = true;
  const auto r = harness::run_soak(s);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.roundtrips, 1500u);
  EXPECT_EQ(r.failed_calls, 0u);
  EXPECT_GT(r.blackout_drops, 0u);
  EXPECT_EQ(r.server_incarnation, 1u);  // no crash for RPC
  EXPECT_TRUE(r.conserved);
}

TEST(Soak, CleanRunHasNoFaultsAndNoRecovery) {
  harness::SoakSpec s;
  s.kind = net::StackKind::kTcpIp;
  s.roundtrips = 400;
  const auto r = harness::run_soak(s);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.faults.total(), 0u);
  EXPECT_EQ(r.tcp_retransmits, 0u);
  EXPECT_EQ(r.fault_log_hash, harness::run_soak(s).fault_log_hash);
}

}  // namespace
}  // namespace l96
