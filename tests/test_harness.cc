// Integration tests over the experiment harness: the paper's qualitative
// results must hold — configuration ordering, technique effects, Table 1
// instruction savings, outlining footprint effects.
#include <gtest/gtest.h>

#include "code/analysis.h"
#include <algorithm>
#include <random>
#include <set>
#include <stdexcept>
#include <string>

#include "harness/experiment.h"

namespace l96 {
namespace {

using code::StackConfig;
using harness::Experiment;
using harness::run_config;

class HarnessTcp : public ::testing::Test {
 protected:
  static harness::ConfigResult result(const StackConfig& cfg) {
    return run_config(net::StackKind::kTcpIp, cfg, cfg);
  }
};

TEST_F(HarnessTcp, ConfigOrderingMatchesTable4) {
  // BAD slowest, ALL fastest; every step in between improves (Table 4).
  const auto bad = result(StackConfig::Bad());
  const auto std_ = result(StackConfig::Std());
  const auto out = result(StackConfig::Out());
  const auto clo = result(StackConfig::Clo());
  const auto pin = result(StackConfig::Pin());
  const auto all = result(StackConfig::All());
  EXPECT_GT(bad.te_us, std_.te_us);
  EXPECT_GT(std_.te_us, out.te_us);
  EXPECT_GT(out.te_us, clo.te_us);
  EXPECT_GT(clo.te_us, pin.te_us);
  EXPECT_GT(pin.te_us, all.te_us);
}

TEST_F(HarnessTcp, BadVsAllMcpiFactorInPaperBand) {
  const auto bad = result(StackConfig::Bad());
  const auto all = result(StackConfig::All());
  const double factor = bad.client.steady.mcpi() / all.client.steady.mcpi();
  // Paper: "a factor of 3.9 for the TCP/IP stack".
  EXPECT_GT(factor, 2.5);
  EXPECT_LT(factor, 7.0);
}

TEST_F(HarnessTcp, StdMcpiExceedsAllByOverThirtyFivePercent) {
  const auto std_ = result(StackConfig::Std());
  const auto all = result(StackConfig::All());
  EXPECT_GT(std_.client.steady.mcpi(), 1.2 * all.client.steady.mcpi());
}

TEST_F(HarnessTcp, PathInliningShrinksTrace) {
  const auto out = result(StackConfig::Out());
  const auto pin = result(StackConfig::Pin());
  EXPECT_LT(pin.client.instructions, out.client.instructions);
}

TEST_F(HarnessTcp, OutliningReducesTakenBranches) {
  const auto std_ = result(StackConfig::Std());
  const auto out = result(StackConfig::Out());
  EXPECT_LT(out.client.steady.taken_branches,
            std_.client.steady.taken_branches);
  EXPECT_LE(out.client.steady.icpi(), std_.client.steady.icpi());
}

TEST_F(HarnessTcp, CloningEliminatesMostReplacementMisses) {
  const auto bad = result(StackConfig::Bad());
  const auto clo = result(StackConfig::Clo());
  const auto all = result(StackConfig::All());
  EXPECT_LT(clo.client.cold.icache.repl_misses,
            bad.client.cold.icache.repl_misses);
  EXPECT_LE(all.client.cold.icache.repl_misses,
            clo.client.cold.icache.repl_misses);
}

TEST_F(HarnessTcp, OnlyBadThrashesBcache) {
  // Table 6: "except for the BAD versions, none of the kernels cause
  // replacement misses in the b-cache."
  const auto bad = result(StackConfig::Bad());
  const auto std_ = result(StackConfig::Std());
  const auto all = result(StackConfig::All());
  EXPECT_GT(bad.client.cold.bcache.repl_misses, 20u);
  EXPECT_LE(std_.client.cold.bcache.repl_misses, 10u);
  EXPECT_LE(all.client.cold.bcache.repl_misses, 10u);
}

TEST_F(HarnessTcp, Table9OutliningFootprint) {
  // Outlining reduces unused i-cache slots and the static mainline size.
  const auto std_ = result(StackConfig::Std());
  const auto out = result(StackConfig::Out());
  EXPECT_LT(out.client.footprint.unused_fraction,
            std_.client.footprint.unused_fraction);
  EXPECT_LT(out.client.static_hot_words, std_.client.static_hot_words);
  // Roughly a quarter to a half of the path outlines (paper: 34%).
  const double outlined =
      1.0 - static_cast<double>(out.client.static_hot_words) /
                static_cast<double>(std_.client.static_hot_words);
  EXPECT_GT(outlined, 0.15);
  EXPECT_LT(outlined, 0.60);
}

TEST_F(HarnessTcp, CriticalPathShorterThanFullTrace) {
  const auto r = result(StackConfig::Std());
  EXPECT_LT(r.client.critical_instructions, r.client.instructions);
  EXPECT_GT(r.client.critical_instructions, r.client.instructions / 2);
  EXPECT_LT(r.client.critical_us, r.client.tp_us);
}

TEST_F(HarnessTcp, EndToEndIncludesControllerOverhead) {
  const auto r = result(StackConfig::Std());
  EXPECT_NEAR(r.te_us - r.te_adjusted, 210.0, 2.0);  // paper subtracts 210us
}

// Te is the paper's zero-overhead-classifier roundtrip: the controller plus
// each side's critical-path time, and nothing else — for every layout,
// path-inlined or not, on both stacks.  Exact equality: no hidden term.
TEST(TeComposition, ControllerPlusCriticalSumsOnEveryLayout) {
  for (const net::StackKind kind :
       {net::StackKind::kTcpIp, net::StackKind::kRpc}) {
    for (const StackConfig& cfg : harness::paper_configs()) {
      Experiment e(kind, cfg, cfg);
      e.capture();
      const harness::ConfigResult r = e.run();
      const double sides = r.client.critical_us + r.server.critical_us;
      EXPECT_EQ(r.te_us, e.controller_us() + r.client.critical_us +
                             r.server.critical_us)
          << cfg.name;
      EXPECT_EQ(r.te_adjusted, sides) << cfg.name;
    }
  }
}

TEST_F(HarnessTcp, TeSamplesVaryLittle) {
  Experiment e(net::StackKind::kTcpIp, StackConfig::Std(),
               StackConfig::Std());
  const auto samples = e.te_samples(5);
  ASSERT_EQ(samples.size(), 5u);
  double mn = samples[0], mx = samples[0];
  for (double s : samples) {
    mn = std::min(mn, s);
    mx = std::max(mx, s);
  }
  EXPECT_LT(mx - mn, 0.1 * mn);  // stable measurement
}

// --- Table 1: Section-2 instruction savings ----------------------------------

std::uint64_t instructions_with(StackConfig cfg) {
  Experiment e(net::StackKind::kTcpIp, cfg, cfg);
  return e.run().client.instructions;
}

TEST(Table1, EveryRiscChangeSavesInstructions) {
  const std::uint64_t improved = instructions_with(StackConfig::Std());

  std::uint64_t saved = 0;
  auto check = [&](auto&& mutate, std::uint64_t lo, std::uint64_t hi,
                   const char* what) {
    StackConfig c = StackConfig::Std();
    mutate(c);
    const std::uint64_t n = instructions_with(c);
    EXPECT_GT(n, improved) << what;
    EXPECT_GE(n - improved, lo) << what;
    EXPECT_LE(n - improved, hi) << what;
    saved += n - improved;
  };
  // Paper Table 1 (client path, per roundtrip): savings bands around the
  // reported numbers.
  check([](StackConfig& c) { c.tcb_word_fields = false; }, 200, 480,
        "bytes/shorts -> words (324)");
  check([](StackConfig& c) { c.msg_refresh_shortcut = false; }, 120, 330,
        "message refresh shortcut (208)");
  check([](StackConfig& c) { c.usc_sparse_descriptors = false; }, 100, 260,
        "USC descriptors (171)");
  check([](StackConfig& c) { c.inline_map_cache_test = false; }, 60, 220,
        "inlined map cache test (120)");
  check([](StackConfig& c) { c.careful_inlining = false; }, 60, 220,
        "careful inlining (119)");
  check([](StackConfig& c) { c.avoid_int_division = false; }, 40, 190,
        "avoid integer division (90)");
  check([](StackConfig& c) { c.minor_opts = false; }, 15, 90,
        "other minor changes (39)");
  // The deltas are additive: turning every change off at once (the
  // original stack) costs exactly the sum of the one-at-a-time savings.
  EXPECT_EQ(saved, instructions_with(StackConfig::Original()) - improved);
}

TEST(Table1, OriginalVsImprovedTotal) {
  const std::uint64_t improved = instructions_with(StackConfig::Std());
  const std::uint64_t original = instructions_with(StackConfig::Original());
  const std::uint64_t total = original - improved;
  // Paper: 1071 instructions saved in total; ~18% of the original path.
  EXPECT_GT(total, 700u);
  EXPECT_LT(total, 1500u);
  EXPECT_GT(static_cast<double>(total) / static_cast<double>(original), 0.10);
}

// --- RPC-side orderings ---------------------------------------------------

TEST(HarnessRpc, ConfigOrderingHolds) {
  auto run = [](const StackConfig& c) {
    return run_config(net::StackKind::kRpc, c, StackConfig::All());
  };
  const auto bad = run(StackConfig::Bad());
  const auto std_ = run(StackConfig::Std());
  const auto clo = run(StackConfig::Clo());
  const auto all = run(StackConfig::All());
  EXPECT_GT(bad.te_us, std_.te_us);
  EXPECT_GT(std_.te_us, clo.te_us);
  EXPECT_GT(clo.te_us, all.te_us);
}

TEST(HarnessRpc, PathInliningHelpsRpcMoreThanTcp) {
  // Section 4.3: the many-small-function RPC stack gains more from
  // path-inlining (relative instruction count reduction).
  auto rel_gain = [](net::StackKind k) {
    const auto scfg = k == net::StackKind::kRpc ? StackConfig::All()
                                                : StackConfig::Out();
    const auto out = run_config(k, StackConfig::Out(), scfg);
    const auto pin = run_config(k, StackConfig::Pin(), scfg);
    return 1.0 - static_cast<double>(pin.client.instructions) /
                     static_cast<double>(out.client.instructions);
  };
  EXPECT_GT(rel_gain(net::StackKind::kRpc), rel_gain(net::StackKind::kTcpIp));
}

TEST(HarnessRpc, AllIsBestMcpi) {
  auto run = [](const StackConfig& c) {
    return run_config(net::StackKind::kRpc, c, StackConfig::All());
  };
  const auto all = run(StackConfig::All());
  for (const auto& cfg : harness::paper_configs()) {
    if (cfg.name == "ALL") continue;
    EXPECT_GE(run(cfg).client.steady.mcpi(), all.client.steady.mcpi())
        << cfg.name;
  }
}

// --- footprint map (Figure 2 infrastructure) -----------------------------------

TEST(Analysis, FootprintMapShapes) {
  Experiment e(net::StackKind::kTcpIp, StackConfig::Std(),
               StackConfig::Std());
  const auto trace = e.lower_client();
  const std::string map = code::footprint_map(trace);
  // 256 sets, 64 per row -> 4 rows.
  EXPECT_EQ(std::count(map.begin(), map.end(), '\n'), 4);
  EXPECT_NE(map.find('#'), std::string::npos);  // some conflicted sets
}

// footprint_stats merges straight-line runs instead of hashing every PC;
// on random traces of runs, repeats, overlaps and backward jumps it must
// count exactly the distinct words and blocks.
TEST(Analysis, FootprintStatsCountsDistinctWordsAndBlocks) {
  std::mt19937_64 rng(5);
  const code::CodeImage image;
  for (int round = 0; round < 200; ++round) {
    sim::MachineTrace t;
    const int runs = static_cast<int>(rng() % 40);
    for (int r = 0; r < runs; ++r) {
      sim::Addr pc = 0x1000 + (rng() % 512) * 4 + (rng() % 2) * 0x700000;
      const int len = static_cast<int>(rng() % 20) + 1;
      for (int i = 0; i < len; ++i, pc += 4) {
        t.push_back({pc, sim::InstrClass::kIAlu, 0, false});
      }
    }
    for (const std::uint32_t bb : {4u, 32u, 64u}) {
      std::set<sim::Addr> words, blocks;
      for (const sim::MachineInstr& in : t) {
        words.insert(in.pc / 4);
        blocks.insert(in.pc / bb);
      }
      const code::FootprintStats fs = code::footprint_stats(t, image, bb);
      ASSERT_EQ(fs.words_executed, words.size()) << round << " " << bb;
      ASSERT_EQ(fs.blocks_fetched, blocks.size()) << round << " " << bb;
    }
  }
}

TEST(Analysis, BadLayoutShowsConcentratedConflicts) {
  Experiment bad(net::StackKind::kTcpIp, StackConfig::Bad(),
                 StackConfig::Bad());
  Experiment all(net::StackKind::kTcpIp, StackConfig::All(),
                 StackConfig::All());
  const auto all_map = code::footprint_map(all.lower_client());
  const auto bad_map = code::footprint_map(bad.lower_client());
  const auto conflicts = [](const std::string& m) {
    return std::count(m.begin(), m.end(), '#');
  };
  const auto untouched = [](const std::string& m) {
    return std::count(m.begin(), m.end(), '.');
  };
  // BAD concentrates everything on a few sets: more untouched sets overall.
  EXPECT_GT(untouched(bad_map), untouched(all_map));
  EXPECT_GT(conflicts(bad_map), 0);
}

// A capture may be reconfigured only to configs that share its functional
// key: STD's trace serves BAD and CLO, while PIN's path-inlining changes
// what is captured.
TEST(Analysis, ReconfiguredRefusesAnotherCaptureKey) {
  const Experiment e(net::StackKind::kTcpIp, StackConfig::Std(),
                     StackConfig::Std());
  const auto params = harness::MachineParams::defaults();
  for (const StackConfig& cfg : {StackConfig::Bad(), StackConfig::Clo()}) {
    EXPECT_EQ(e.reconfigured(cfg, cfg, params).client_spec().cfg.name,
              cfg.name);
  }
  try {
    e.reconfigured(StackConfig::Pin(), StackConfig::Pin(), params);
    FAIL() << "reconfigured accepted PIN over an STD capture";
  } catch (const std::invalid_argument& ex) {
    const std::string what = ex.what();
    const std::string std_key = harness::capture_key(
        net::StackKind::kTcpIp, StackConfig::Std(), StackConfig::Std(),
        params.warmup_roundtrips);
    const std::string pin_key = harness::capture_key(
        net::StackKind::kTcpIp, StackConfig::Pin(), StackConfig::Pin(),
        params.warmup_roundtrips);
    EXPECT_NE(what.find(std_key), std::string::npos) << what;
    EXPECT_NE(what.find(pin_key), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace l96
