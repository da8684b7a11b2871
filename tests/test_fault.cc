// Fault-injection subsystem: injector determinism, per-direction stream
// independence, scheduled faults, legacy one-shot wrappers, wire frame
// conservation under mixed faults.
#include <gtest/gtest.h>

#include "net/fault.h"
#include "net/wire.h"
#include "net/world.h"

namespace l96 {
namespace {

net::FaultPlan noisy_plan(std::uint64_t seed) {
  net::FaultPlan plan;
  plan.seed = seed;
  for (int p = 0; p < 2; ++p) {
    plan.rates[p] = {.drop = 0.05,
                     .corrupt = 0.05,
                     .duplicate = 0.03,
                     .reorder = 0.03,
                     .delay = 0.04};
  }
  return plan;
}

TEST(FaultInjector, SameSeedSameDecisions) {
  net::FaultInjector a, b;
  a.set_plan(noisy_plan(42));
  b.set_plan(noisy_plan(42));
  for (int i = 0; i < 2000; ++i) {
    const int port = i % 2;
    const auto da = a.next(port, 64, static_cast<std::uint64_t>(i) * 100);
    const auto db = b.next(port, 64, static_cast<std::uint64_t>(i) * 100);
    ASSERT_EQ(da.kind, db.kind) << "frame " << i;
    ASSERT_EQ(da.arg, db.arg) << "frame " << i;
  }
  EXPECT_EQ(a.log(), b.log());
  EXPECT_EQ(a.counters().total(), b.counters().total());
  EXPECT_GT(a.counters().total(), 0u);
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  net::FaultInjector a, b;
  a.set_plan(noisy_plan(1));
  b.set_plan(noisy_plan(2));
  int diverged = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto da = a.next(0, 64, 0);
    const auto db = b.next(0, 64, 0);
    if (da.kind != db.kind || da.arg != db.arg) ++diverged;
  }
  EXPECT_GT(diverged, 0);
}

TEST(FaultInjector, DirectionsAreIndependentStreams) {
  // Port 0's decision sequence must not depend on how many port-1
  // transmits interleave: each direction draws from its own stream.
  net::FaultInjector solo, mixed;
  solo.set_plan(noisy_plan(7));
  mixed.set_plan(noisy_plan(7));
  std::vector<net::FaultDecision> solo_seq, mixed_seq;
  for (int i = 0; i < 500; ++i) {
    solo_seq.push_back(solo.next(0, 64, 0));
  }
  for (int i = 0; i < 500; ++i) {
    mixed.next(1, 64, 0);  // interleaved other-direction traffic
    mixed_seq.push_back(mixed.next(0, 64, 0));
    mixed.next(1, 64, 0);
  }
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(solo_seq[i].kind, mixed_seq[i].kind) << "frame " << i;
    ASSERT_EQ(solo_seq[i].arg, mixed_seq[i].arg) << "frame " << i;
  }
}

TEST(FaultInjector, RatesApproximateCounts) {
  net::FaultPlan plan;
  plan.seed = 99;
  plan.rates[0] = {.drop = 0.10, .corrupt = 0.05};
  net::FaultInjector inj;
  inj.set_plan(plan);
  const int n = 20000;
  for (int i = 0; i < n; ++i) inj.next(0, 64, 0);
  // Loose 30% bands around the expectation (binomial stddev is ~1-2%).
  EXPECT_GT(inj.counters().drops, n * 0.10 * 0.7);
  EXPECT_LT(inj.counters().drops, n * 0.10 * 1.3);
  EXPECT_GT(inj.counters().corrupts, n * 0.05 * 0.7);
  EXPECT_LT(inj.counters().corrupts, n * 0.05 * 1.3);
  EXPECT_EQ(inj.counters().duplicates, 0u);
}

TEST(FaultInjector, StartAfterFramesDefersRandomFaults) {
  net::FaultPlan plan;
  plan.seed = 5;
  plan.rates[0].drop = 1.0;
  plan.start_after_frames = 10;
  net::FaultInjector inj;
  inj.set_plan(plan);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(inj.next(0, 64, 0).kind, net::FaultKind::kNone) << i;
  }
  EXPECT_EQ(inj.next(0, 64, 0).kind, net::FaultKind::kDrop);
}

TEST(FaultInjector, ScheduledFaultFiresAtExactFrame) {
  net::FaultPlan plan;
  plan.seed = 3;
  plan.scheduled[1].push_back(
      {.frame_ix = 5, .kind = net::FaultKind::kCorrupt, .arg = 17,
       .has_arg = true});
  net::FaultInjector inj;
  inj.set_plan(plan);
  for (int i = 0; i < 12; ++i) {
    const auto d = inj.next(1, 64, 1000 + static_cast<std::uint64_t>(i));
    if (i == 5) {
      EXPECT_EQ(d.kind, net::FaultKind::kCorrupt);
      EXPECT_EQ(d.arg, 17u);
    } else {
      EXPECT_EQ(d.kind, net::FaultKind::kNone) << "frame " << i;
    }
  }
  ASSERT_EQ(inj.log().size(), 1u);
  EXPECT_EQ(inj.log()[0].frame_ix, 5u);
  EXPECT_EQ(inj.log()[0].port, 1);
  EXPECT_EQ(inj.log()[0].at_us, 1005u);
}

TEST(FaultInjector, RejectsOversubscribedRates) {
  net::FaultPlan plan;
  plan.rates[0] = {.drop = 0.6, .corrupt = 0.6};
  net::FaultInjector inj;
  EXPECT_THROW(inj.set_plan(plan), std::invalid_argument);
}

TEST(FaultInjector, LegacyOneShotWrappers) {
  net::FaultInjector inj;
  inj.force_drop(1);
  inj.force_corrupt(1);
  EXPECT_EQ(inj.next(0, 64, 0).kind, net::FaultKind::kDrop);
  const auto d = inj.next(1, 64, 0);
  EXPECT_EQ(d.kind, net::FaultKind::kCorrupt);
  EXPECT_EQ(d.arg, 32u);  // middle byte, as the legacy API corrupted
  EXPECT_EQ(inj.next(0, 64, 0).kind, net::FaultKind::kNone);
  EXPECT_EQ(inj.counters().forced, 2u);
}

// --- Wire-level behaviour ---------------------------------------------------

struct WirePair {
  xk::EventManager events;
  net::Wire wire{events};
  std::vector<std::vector<std::uint8_t>> rx[2];
  WirePair() {
    wire.connect(0, [this](std::span<const std::uint8_t> f) {
      rx[0].emplace_back(f.begin(), f.end());
    });
    wire.connect(1, [this](std::span<const std::uint8_t> f) {
      rx[1].emplace_back(f.begin(), f.end());
    });
  }
};

TEST(Wire, DeliversIntactWithoutPlan) {
  WirePair w;
  w.wire.transmit(0, std::vector<std::uint8_t>(64, 0xAB));
  w.events.advance_by(1'000'000);
  ASSERT_EQ(w.rx[1].size(), 1u);
  EXPECT_EQ(w.rx[1][0], std::vector<std::uint8_t>(64, 0xAB));
  EXPECT_TRUE(w.wire.conserved());
  EXPECT_EQ(w.wire.frames_in_flight(), 0u);
}

TEST(Wire, CorruptFlipsExactlyOneByte) {
  WirePair w;
  w.wire.injector().force(0, net::FaultKind::kCorrupt, 10, true);
  w.wire.transmit(0, std::vector<std::uint8_t>(64, 0x00));
  w.events.advance_by(1'000'000);
  ASSERT_EQ(w.rx[1].size(), 1u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(w.rx[1][0][i], i == 10 ? 0xFF : 0x00) << "byte " << i;
  }
}

TEST(Wire, DuplicateDeliversTwice) {
  WirePair w;
  w.wire.injector().force(1, net::FaultKind::kDuplicate);
  w.wire.transmit(1, std::vector<std::uint8_t>(64, 0x11));
  w.events.advance_by(1'000'000);
  ASSERT_EQ(w.rx[0].size(), 2u);
  EXPECT_EQ(w.rx[0][0], w.rx[0][1]);
  EXPECT_TRUE(w.wire.conserved());
  EXPECT_EQ(w.wire.frames_delivered(), 2u);
  EXPECT_EQ(w.wire.frames_carried(), 1u);
}

TEST(Wire, ReorderSwapsWithSuccessor) {
  WirePair w;
  w.wire.injector().force(0, net::FaultKind::kReorder);
  w.wire.transmit(0, std::vector<std::uint8_t>(64, 0x01));  // held
  w.wire.transmit(0, std::vector<std::uint8_t>(64, 0x02));  // releases it
  w.events.advance_by(2'000'000);
  ASSERT_EQ(w.rx[1].size(), 2u);
  EXPECT_EQ(w.rx[1][0][0], 0x02);
  EXPECT_EQ(w.rx[1][1][0], 0x01);
  EXPECT_TRUE(w.wire.conserved());
  EXPECT_EQ(w.wire.frames_in_flight(), 0u);
}

TEST(Wire, ReorderFallbackFlushesHeldFrame) {
  // No successor ever transmits: the hold falls back to a timer flush so
  // the frame is not lost (conservation would catch it otherwise).
  WirePair w;
  w.wire.injector().force(0, net::FaultKind::kReorder);
  w.wire.transmit(0, std::vector<std::uint8_t>(64, 0x77));
  EXPECT_EQ(w.wire.frames_in_flight(), 1u);
  w.events.advance_by(2'000'000);
  ASSERT_EQ(w.rx[1].size(), 1u);
  EXPECT_EQ(w.rx[1][0][0], 0x77);
  EXPECT_TRUE(w.wire.conserved());
  EXPECT_EQ(w.wire.frames_in_flight(), 0u);
  EXPECT_EQ(w.events.pending(), 0u);
}

TEST(Wire, DelayAddsLatencyWithoutLoss) {
  WirePair a, b;
  a.wire.transmit(0, std::vector<std::uint8_t>(64, 1));
  b.wire.injector().force(0, net::FaultKind::kDelay, 1500, true);
  b.wire.transmit(0, std::vector<std::uint8_t>(64, 1));
  // The delayed copy is still pending when the clean one has arrived.
  a.events.advance_by(200);
  b.events.advance_by(200);
  EXPECT_EQ(a.rx[1].size(), 1u);
  EXPECT_EQ(b.rx[1].size(), 0u);
  b.events.advance_by(2'000);
  EXPECT_EQ(b.rx[1].size(), 1u);
  EXPECT_TRUE(b.wire.conserved());
}

TEST(Wire, ConservationUnderMixedRandomFaults) {
  WirePair w;
  w.wire.set_fault_plan(noisy_plan(1234));
  for (int i = 0; i < 2000; ++i) {
    w.wire.transmit(i % 2, std::vector<std::uint8_t>(64, 0x5A));
    if (i % 7 == 0) w.events.advance_by(500);
  }
  w.events.advance_by(10'000'000);
  EXPECT_EQ(w.wire.frames_in_flight(), 0u);
  EXPECT_TRUE(w.wire.conserved());
  EXPECT_EQ(w.wire.frames_carried(), 2000u);
  const auto& c = w.wire.fault_counters();
  EXPECT_GT(c.drops, 0u);
  EXPECT_GT(c.corrupts, 0u);
  EXPECT_GT(c.duplicates, 0u);
  EXPECT_GT(c.reorders, 0u);
  EXPECT_GT(c.delays, 0u);
  EXPECT_EQ(w.wire.frames_carried() + c.duplicates,
            w.wire.frames_delivered() + w.wire.frames_dropped());
  EXPECT_EQ(w.wire.fault_log().size(), c.total());
}

TEST(Wire, ConservationUnderFaultPlanWithBlackout) {
  // Random faults and a hard link blackout compose: every frame must land
  // in exactly one of delivered / injector-dropped / blackout-dropped, and
  // the deterministic fault schedule must not be consumed by frames that
  // never reached the medium.
  WirePair w;
  w.wire.set_fault_plan(noisy_plan(99));

  // Phase 1: noisy traffic with the link up.
  for (int i = 0; i < 600; ++i) {
    w.wire.transmit(i % 2, std::vector<std::uint8_t>(64, 0x21));
    if (i % 5 == 0) w.events.advance_by(300);
  }

  // Cut the link with frames still in the air: reorder holds die at the
  // cut, mid-flight frames die at arrival time.
  w.wire.link_down();
  ASSERT_EQ(w.wire.blackouts(), 1u);
  const auto faults_at_cut = w.wire.fault_counters().total();

  // Phase 2: frames transmitted into the blackout are swallowed before the
  // injector ever sees them.
  for (int i = 0; i < 200; ++i) {
    w.wire.transmit(i % 2, std::vector<std::uint8_t>(64, 0x42));
  }
  EXPECT_EQ(w.wire.fault_counters().total(), faults_at_cut);
  w.events.advance_by(5'000'000);
  EXPECT_EQ(w.wire.frames_in_flight(), 0u);
  EXPECT_GE(w.wire.blackout_drops(), 200u);

  // Phase 3: restore the link; the fault schedule resumes where it paused.
  w.wire.link_up();
  for (int i = 0; i < 600; ++i) {
    w.wire.transmit(i % 2, std::vector<std::uint8_t>(64, 0x63));
    if (i % 5 == 0) w.events.advance_by(300);
  }
  w.events.advance_by(10'000'000);

  EXPECT_EQ(w.wire.frames_in_flight(), 0u);
  EXPECT_TRUE(w.wire.conserved());
  EXPECT_EQ(w.wire.frames_carried(), 1400u);
  const auto& c = w.wire.fault_counters();
  EXPECT_GT(c.total(), faults_at_cut);  // injector active again after restore
  // Exactly-once accounting across both loss mechanisms (each duplicate
  // adds one extra delivery):
  EXPECT_EQ(w.wire.frames_carried() + c.duplicates,
            w.wire.frames_delivered() + w.wire.frames_dropped() +
                w.wire.blackout_drops());
}

TEST(Wire, WorldFaultLogReplaysByteIdentically) {
  // Two full TCP worlds with the same plan produce identical fault logs —
  // the replay guarantee the soak harness depends on.
  auto run_world = [] {
    net::World w(net::StackKind::kTcpIp, code::StackConfig::Std(),
                 code::StackConfig::Std());
    net::FaultPlan plan;
    plan.seed = 77;
    plan.start_after_frames = 4;
    plan.rates[0] = {.drop = 0.02, .corrupt = 0.02};
    plan.rates[1] = {.drop = 0.02, .corrupt = 0.02};
    w.set_fault_plan(plan);
    w.start(60);
    EXPECT_TRUE(w.run_until_roundtrips(60, 120'000'000));
    return w.fault_log();
  };
  const auto log1 = run_world();
  const auto log2 = run_world();
  EXPECT_GT(log1.size(), 0u);
  EXPECT_EQ(log1, log2);
}

}  // namespace
}  // namespace l96
