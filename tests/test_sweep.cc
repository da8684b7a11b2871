// Tests for the SweepRunner subsystem: the trace-capture cache must capture
// each functional configuration exactly once, the worker pool must produce
// byte-identical numbers to the serial Experiment path in deterministic
// order, and the JSON metrics emission must be well-formed.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness/sweep.h"

namespace l96 {
namespace {

using code::StackConfig;
using harness::capture_key;
using harness::SweepJob;
using harness::SweepRunner;

std::vector<SweepJob> table8_jobs() {
  std::vector<SweepJob> jobs;
  for (const auto& cfg : harness::paper_configs()) {
    SweepJob j;
    j.kind = net::StackKind::kTcpIp;
    j.client = cfg;
    j.server = cfg;
    jobs.push_back(std::move(j));
  }
  return jobs;
}

TEST(SweepRunner, MatchesSerialPathExactly) {
  // The acceptance bar: a Table-8-style sweep through the runner produces
  // byte-identical cycle/CPI/mCPI numbers to the serial Experiment path.
  const auto jobs = table8_jobs();
  SweepRunner runner(2);
  const auto outcomes = runner.run(jobs);
  ASSERT_EQ(outcomes.size(), jobs.size());

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto serial =
        harness::run_config(jobs[i].kind, jobs[i].client, jobs[i].server);
    const auto& par = outcomes[i].result;
    SCOPED_TRACE(jobs[i].client.name);
    EXPECT_EQ(outcomes[i].label, jobs[i].client.name);
    EXPECT_EQ(par.client.instructions, serial.client.instructions);
    EXPECT_EQ(par.client.steady.cycles(), serial.client.steady.cycles());
    EXPECT_EQ(par.client.cold.icache.misses, serial.client.cold.icache.misses);
    EXPECT_EQ(par.client.steady.taken_branches,
              serial.client.steady.taken_branches);
    EXPECT_EQ(par.server.steady.cycles(), serial.server.steady.cycles());
    // Bit-exact doubles: same inputs, same arithmetic, no reordering.
    EXPECT_EQ(par.client.steady.cpi(), serial.client.steady.cpi());
    EXPECT_EQ(par.client.steady.mcpi(), serial.client.steady.mcpi());
    EXPECT_EQ(par.te_us, serial.te_us);
    EXPECT_EQ(par.te_adjusted, serial.te_adjusted);
  }
}

TEST(SweepRunner, CapturesEachFunctionalTraceOnce) {
  // STD/OUT/CLO/BAD share one functional trace; PIN/ALL (path_inlining)
  // share a second.  Six configs -> exactly two captures.
  SweepRunner runner(2);
  const auto outcomes = runner.run(table8_jobs());
  EXPECT_EQ(runner.captures_performed(), 2u);
  std::size_t reused = 0;
  for (const auto& o : outcomes) reused += o.trace_reused ? 1 : 0;
  EXPECT_EQ(reused, outcomes.size() - 2);
  // Re-running the same sweep hits the cache for every job.
  const auto again = runner.run(table8_jobs());
  EXPECT_EQ(runner.captures_performed(), 2u);
  for (const auto& o : again) EXPECT_TRUE(o.trace_reused);
}

TEST(SweepRunner, RunsOnMultipleWorkerThreads) {
  SweepRunner runner(2);
  ASSERT_GE(runner.thread_count(), 2u);
  runner.run(table8_jobs());
  // Six jobs across two workers; both must have picked up work.  (Even on a
  // single hardware core the pool spawns two OS threads.)
  EXPECT_GE(runner.workers_used(), 2u);
}

TEST(SweepRunner, CaptureKeyIgnoresLayoutOnlyFields) {
  const auto base = capture_key(net::StackKind::kTcpIp, StackConfig::Std(),
                                StackConfig::Std(), 64);
  EXPECT_EQ(capture_key(net::StackKind::kTcpIp, StackConfig::Out(),
                        StackConfig::Out(), 64),
            base);
  EXPECT_EQ(capture_key(net::StackKind::kTcpIp, StackConfig::Bad(),
                        StackConfig::Bad(), 64),
            base);
  // Functional fields DO key the cache.
  EXPECT_NE(capture_key(net::StackKind::kTcpIp, StackConfig::Pin(),
                        StackConfig::Pin(), 64),
            base);
  EXPECT_NE(capture_key(net::StackKind::kTcpIp, StackConfig::Original(),
                        StackConfig::Original(), 64),
            base);
  EXPECT_NE(capture_key(net::StackKind::kRpc, StackConfig::Std(),
                        StackConfig::Std(), 64),
            base);
  EXPECT_NE(capture_key(net::StackKind::kTcpIp, StackConfig::Std(),
                        StackConfig::Std(), 32),
            base);
}

TEST(SweepRunner, TeSamplesMatchSerialPath) {
  SweepJob j;
  j.kind = net::StackKind::kTcpIp;
  j.client = StackConfig::Std();
  j.server = StackConfig::Std();
  j.te_sample_count = 3;
  SweepRunner runner(2);
  const auto out = runner.run({j});
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].te_samples.size(), 3u);

  harness::Experiment e(net::StackKind::kTcpIp, StackConfig::Std(),
                        StackConfig::Std());
  const auto serial = e.te_samples(3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[0].te_samples[i], serial[i]) << i;
  }
}

TEST(SweepRunner, LowestIndexJobFailureIsRethrownWithItsLabel) {
  // Jobs 1 and 2 both fail inside measure_side (non-power-of-two i-cache);
  // whichever worker finishes first, the error names job 1.
  std::vector<SweepJob> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].label = "j" + std::to_string(i);
    jobs[i].client = StackConfig::Std();
    jobs[i].server = StackConfig::Std();
  }
  jobs[1].params.mem.icache_bytes = 3000;
  jobs[2].params.mem.icache_bytes = 5000;
  SweepRunner runner(2);
  try {
    runner.run(jobs);
    FAIL() << "expected the sweep to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "sweep job 'j1' failed: cache geometry must be "
                 "power-of-two sized");
  }
}

TEST(SweepRunner, ShrunkWarmupIsAPartOfTheKeyAndStillRuns) {
  // MachineParams::warmup_roundtrips lets sweeps shrink warm-up
  // deliberately; a shorter warm-up is a distinct functional capture.
  SweepJob j;
  j.client = StackConfig::Std();
  j.server = StackConfig::Std();
  j.params.warmup_roundtrips = 16;
  SweepRunner runner(2);
  const auto out = runner.run({j});
  EXPECT_GT(out[0].result.client.instructions, 0u);
  EXPECT_EQ(runner.captures_performed(), 1u);
}

// --- JSON emission -----------------------------------------------------------

/// Minimal structural JSON validator: brace/bracket balance with correct
/// nesting and string/escape handling.  Catches the bugs a hand-rolled
/// writer can introduce without pulling in a JSON library.
bool json_well_formed(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip escaped char
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

TEST(SweepJson, EmitsWellFormedMetrics) {
  SweepJob j;
  j.label = "STD \"quoted\" label";  // exercise escaping
  j.client = StackConfig::Std();
  j.server = StackConfig::Std();
  SweepRunner runner(2);
  const auto outcomes = runner.run({j});

  std::ostringstream ss;
  harness::write_sweep_json(ss, "unit_test_bench", runner, {j}, outcomes);
  const std::string json = ss.str();

  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"schema\":\"l96.sweep.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"unit_test_bench\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  for (const char* key :
       {"\"cycles\":", "\"cpi\":", "\"icpi\":", "\"mcpi\":", "\"icache\":",
        "\"dcache\":", "\"bcache\":", "\"misses\":", "\"repl_misses\":",
        "\"wall_ms\":", "\"capture\":", "\"measure\":", "\"te_us\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(SweepJson, HandBuiltOutcomesEmitPinnedBytes) {
  // Every byte of the l96.sweep.v1 row layout, on outcomes built by hand so
  // the counters are fixed: key order, escaping, 12-digit doubles, the
  // te_samples array and an attached section.
  SweepRunner runner(2);  // never run: workers_used 0, captures 0
  std::vector<SweepJob> jobs(2);
  jobs[1].kind = net::StackKind::kRpc;
  std::vector<harness::SweepOutcome> outcomes(2);
  harness::SweepOutcome& o = outcomes[0];
  o.label = "STD \"pinned\"";
  o.trace_reused = true;
  o.capture_wall_ms = 1.5;
  o.measure_wall_ms = 0.25;
  o.result.te_us = 250.125;
  o.result.te_adjusted = 40.125;
  harness::SideMeasurement& c = o.result.client;
  c.config_name = "STD";
  c.instructions = 1000;
  c.critical_instructions = 600;
  c.tp_us = 12.5;
  c.critical_us = 7.25;
  c.static_hot_words = 300;
  c.static_total_words = 900;
  c.cold.instructions = 1000;
  c.cold.issue_cycles = 1500;
  c.cold.stall_cycles = 500;
  c.cold.taken_branches = 40;
  c.cold.icache = {100, 10, 2, 0};
  c.cold.dcache_combined = {50, 5, 1, 0};
  c.cold.bcache = {15, 3, 0, 0};
  c.steady = c.cold;
  c.steady.stall_cycles = 100;
  o.result.server = c;
  o.result.server.config_name = "OUT";
  o.te_samples = {250.125, 1.0 / 3.0};
  o.extra_json("pin", harness::json_section("l96.pin.v1").set("n", 3));
  outcomes[1].label = "zero";

  std::ostringstream ss;
  harness::write_sweep_json(ss, "pin\\bench", runner, jobs, outcomes);
  const std::string run_cold =
      "\"cold\":{\"instructions\":1000,\"cycles\":2000,\"issue_cycles\":1500,"
      "\"stall_cycles\":500,\"taken_branches\":40,\"cpi\":2,\"icpi\":1.5,"
      "\"mcpi\":0.5,\"icache\":{\"accesses\":100,\"misses\":10,"
      "\"repl_misses\":2},\"dcache\":{\"accesses\":50,\"misses\":5,"
      "\"repl_misses\":1},\"bcache\":{\"accesses\":15,\"misses\":3,"
      "\"repl_misses\":0}}";
  const std::string run_steady =
      "\"steady\":{\"instructions\":1000,\"cycles\":1600,\"issue_cycles\":1500,"
      "\"stall_cycles\":100,\"taken_branches\":40,\"cpi\":1.6,\"icpi\":1.5,"
      "\"mcpi\":0.1,\"icache\":{\"accesses\":100,\"misses\":10,"
      "\"repl_misses\":2},\"dcache\":{\"accesses\":50,\"misses\":5,"
      "\"repl_misses\":1},\"bcache\":{\"accesses\":15,\"misses\":3,"
      "\"repl_misses\":0}}";
  const auto side = [&](const char* name, const char* cfg) {
    return std::string("\"") + name + "\":{\"config\":\"" + cfg +
           "\",\"instructions\":1000,\"critical_instructions\":600,"
           "\"tp_us\":12.5,\"critical_us\":7.25,\"static_hot_words\":300,"
           "\"static_total_words\":900," +
           run_cold + "," + run_steady + "}";
  };
  const std::string zero_run =
      "{\"instructions\":0,\"cycles\":0,\"issue_cycles\":0,"
      "\"stall_cycles\":0,\"taken_branches\":0,\"cpi\":0,\"icpi\":0,"
      "\"mcpi\":0,\"icache\":{\"accesses\":0,\"misses\":0,"
      "\"repl_misses\":0},\"dcache\":{\"accesses\":0,\"misses\":0,"
      "\"repl_misses\":0},\"bcache\":{\"accesses\":0,\"misses\":0,"
      "\"repl_misses\":0}}";
  const std::string zero_side =
      "{\"config\":\"\",\"instructions\":0,\"critical_instructions\":0,"
      "\"tp_us\":0,\"critical_us\":0,\"static_hot_words\":0,"
      "\"static_total_words\":0,\"cold\":" +
      zero_run + ",\"steady\":" + zero_run + "}";
  const std::string expected =
      "{\"schema\":\"l96.sweep.v1\",\"bench\":\"pin\\\\bench\","
      "\"threads\":2,\"workers_used\":0,\"captures\":0,\"configs\":["
      "{\"label\":\"STD \\\"pinned\\\"\",\"stack\":\"tcpip\","
      "\"trace_reused\":true,\"wall_ms\":{\"capture\":1.5,\"measure\":0.25},"
      "\"te_us\":250.125,\"te_adjusted_us\":40.125," +
      side("client", "STD") + "," + side("server", "OUT") +
      ",\"te_samples\":[250.125,0.333333333333],"
      "\"pin\":{\"schema\":\"l96.pin.v1\",\"n\":3}},"
      "{\"label\":\"zero\",\"stack\":\"rpc\",\"trace_reused\":false,"
      "\"wall_ms\":{\"capture\":0,\"measure\":0},\"te_us\":0,"
      "\"te_adjusted_us\":0,\"client\":" +
      zero_side + ",\"server\":" + zero_side + "}]}\n";
  EXPECT_EQ(ss.str(), expected);
}

TEST(SweepJson, WritesMetricsFile) {
  SweepJob j;
  j.client = StackConfig::Std();
  j.server = StackConfig::Std();
  SweepRunner runner(2);
  const auto outcomes = runner.run({j});

  const std::string dir = ::testing::TempDir() + "/l96_sweep_out";
  const std::string path =
      harness::write_sweep_metrics("test_bench", runner, {j}, outcomes, dir);
  EXPECT_EQ(path, dir + "/test_bench.json");

  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_TRUE(json_well_formed(buf.str()));
  EXPECT_NE(buf.str().find("\"bench\":\"test_bench\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Capture, ErrorsNameStackAndConfigs) {
  // An impossible warm-up target must fail with a descriptive message
  // naming the stack kind, config names, and achieved-vs-requested counts.
  net::World world(net::StackKind::kTcpIp, StackConfig::Std(),
                   StackConfig::Std());
  world.start(2);  // client stops ping-ponging after 2 roundtrips
  try {
    harness::capture_traces(world, 500);
    FAIL() << "expected capture to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("TCP/IP"), std::string::npos) << msg;
    EXPECT_NE(msg.find("client=STD"), std::string::npos) << msg;
    EXPECT_NE(msg.find("server=STD"), std::string::npos) << msg;
    EXPECT_NE(msg.find("of 500 requested"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace l96
