// Tests for the miss-attribution subsystem: the OwnerMap symbolization, the
// conservation property (per-owner counts sum exactly to the replay's
// aggregate CacheStats), byte-deterministic JSON emission, and the
// MeasureSpec API (wrappers byte-identical to the struct form).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>

#include "harness/missmap.h"
#include "harness/sweep.h"

namespace l96 {
namespace {

using code::StackConfig;
using sim::MissProfile;

// --- shared captures (one world per functional configuration) --------------

struct Captured {
  std::unique_ptr<net::World> world;
  harness::CaptureResult traces;
};

const Captured& capture_for(net::StackKind kind, const StackConfig& cfg) {
  static std::map<std::string, std::unique_ptr<Captured>> cache;
  const auto params = harness::MachineParams::defaults();
  const std::string key =
      harness::capture_key(kind, cfg, cfg, params.warmup_roundtrips);
  auto& slot = cache[key];
  if (!slot) {
    slot = std::make_unique<Captured>();
    slot->world = std::make_unique<net::World>(kind, cfg, cfg);
    slot->world->start(~std::uint64_t{0});
    slot->traces =
        harness::capture_traces(*slot->world, params.warmup_roundtrips);
  }
  return *slot;
}

harness::MeasureSpec client_spec(net::StackKind kind, const StackConfig& cfg,
                                 const Captured& c) {
  harness::MeasureSpec s;
  s.kind = kind;
  s.cfg = cfg;
  s.registry = &c.world->client().registry();
  s.trace = &c.traces.client;
  s.split = c.traces.client_split;
  s.seed_offset = 0;
  return s;
}

harness::MeasureSpec server_spec(net::StackKind kind, const StackConfig& cfg,
                                 const Captured& c) {
  harness::MeasureSpec s;
  s.kind = kind;
  s.cfg = cfg;
  s.registry = &c.world->server().registry();
  s.trace = &c.traces.server;
  s.split = c.traces.server_split;
  s.seed_offset = 1;
  return s;
}

// --- conservation -----------------------------------------------------------

void expect_section_internally_consistent(const MissProfile::Section& s,
                                          const char* what) {
  SCOPED_TRACE(what);
  std::uint64_t owner_misses = 0, owner_repl = 0, owner_stall = 0;
  for (const auto& o : s.owners) {
    owner_misses += o.misses;
    owner_repl += o.repl_misses;
    owner_stall += o.stall_cycles;
    EXPECT_GE(o.misses, o.repl_misses);
  }
  EXPECT_EQ(owner_misses, s.misses);
  EXPECT_EQ(owner_repl, s.repl_misses);
  EXPECT_EQ(owner_stall, s.stall_cycles);

  // Every replacement miss is charged to exactly one conflict pair.
  std::uint64_t conflict_total = 0;
  for (const auto& c : s.conflicts) conflict_total += c.count;
  EXPECT_EQ(conflict_total, s.repl_misses);

  std::uint64_t set_misses = 0;
  for (const auto& row : s.sets) {
    set_misses += row.misses;
    EXPECT_GE(row.owners, 1u);
  }
  EXPECT_EQ(set_misses, s.misses);
}

void expect_conserves(const MissProfile& p, const sim::RunResult& r,
                      const char* what) {
  SCOPED_TRACE(what);
  // The profiler saw every i-cache miss the replay counted, exactly once.
  EXPECT_EQ(p.icache.misses, r.icache.misses);
  EXPECT_EQ(p.icache.repl_misses, r.icache.repl_misses);
  EXPECT_EQ(p.icache.stall_cycles, r.stalls.ifetch_stall_cycles);
  // The d-cache is write-through read-allocate: the profiler conserves to
  // the read path alone (stores go through the write buffer).
  EXPECT_EQ(p.dcache.misses, r.dcache_reads.misses);
  EXPECT_EQ(p.dcache.repl_misses, r.dcache_reads.repl_misses);
  EXPECT_EQ(p.dcache.stall_cycles, r.stalls.load_stall_cycles);
  expect_section_internally_consistent(p.icache, "icache");
  expect_section_internally_consistent(p.dcache, "dcache");
}

void run_conservation(net::StackKind kind, const StackConfig& cfg) {
  const StackConfig functional =
      cfg.path_inlining ? StackConfig::All() : StackConfig::Std();
  const Captured& c = capture_for(kind, functional);
  for (auto make : {client_spec, server_spec}) {
    harness::MeasureSpec spec = make(kind, cfg, c);
    spec.profile_misses = true;
    const auto m = harness::measure_side(spec);
    ASSERT_TRUE(m.miss_cold);
    ASSERT_TRUE(m.miss_steady);
    expect_conserves(*m.miss_cold, m.cold, "cold");
    expect_conserves(*m.miss_steady, m.steady, "steady");
    EXPECT_GT(m.miss_cold->icache.misses, 0u);
    EXPECT_GT(m.miss_cold->dcache.misses, 0u);
  }
}

TEST(MissProfiler, ConservesTcpStd) {
  run_conservation(net::StackKind::kTcpIp, StackConfig::Std());
}

TEST(MissProfiler, ConservesTcpBad) {
  run_conservation(net::StackKind::kTcpIp, StackConfig::Bad());
}

TEST(MissProfiler, ConservesRpcAll) {
  run_conservation(net::StackKind::kRpc, StackConfig::All());
}

TEST(MissProfiler, UnprofiledMeasurementHasNoSnapshots) {
  const Captured& c =
      capture_for(net::StackKind::kTcpIp, StackConfig::Std());
  const auto m = harness::measure_side(
      client_spec(net::StackKind::kTcpIp, StackConfig::Std(), c));
  EXPECT_FALSE(m.miss_cold);
  EXPECT_FALSE(m.miss_steady);
}

TEST(MissProfiler, AttributesMissesToKnownFunctions) {
  // The hot protocol functions must appear by name; the catch-all unknown
  // owner must not dominate (the owner map covers the image and the data
  // regions the lowering actually touches).
  const Captured& c =
      capture_for(net::StackKind::kTcpIp, StackConfig::Std());
  harness::MeasureSpec spec =
      client_spec(net::StackKind::kTcpIp, StackConfig::Std(), c);
  spec.profile_misses = true;
  const auto m = harness::measure_side(spec);
  ASSERT_TRUE(m.miss_cold);
  const auto& owners = m.miss_cold->icache.owners;
  ASSERT_FALSE(owners.empty());
  bool saw_tcp_input = false;
  std::uint64_t unknown = 0;
  for (const auto& o : owners) {
    if (o.name == "tcp_input") saw_tcp_input = true;
    if (o.owner == sim::kUnknownOwner) unknown = o.misses;
  }
  EXPECT_TRUE(saw_tcp_input);
  EXPECT_LT(unknown, m.miss_cold->icache.misses / 10 + 1);
}

// --- determinism ------------------------------------------------------------

TEST(MissMapJson, ByteIdenticalAcrossRuns) {
  const Captured& c =
      capture_for(net::StackKind::kTcpIp, StackConfig::Std());
  auto measure = [&] {
    harness::MeasureSpec cs =
        client_spec(net::StackKind::kTcpIp, StackConfig::Std(), c);
    harness::MeasureSpec ss =
        server_spec(net::StackKind::kTcpIp, StackConfig::Std(), c);
    cs.profile_misses = ss.profile_misses = true;
    return harness::combine_sides(harness::measure_side(cs),
                                  harness::measure_side(ss), 0.0);
  };
  const std::string a = harness::missmap_json(measure()).dump();
  const std::string b = harness::missmap_json(measure()).dump();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\":\"l96.missmap.v1\""), std::string::npos);
  EXPECT_NE(a.find("\"client\":{\"cold\":"), std::string::npos);
  EXPECT_NE(a.find("\"conflicts_total\":"), std::string::npos);
}

TEST(MissMapJson, OmitsUnprofiledSides) {
  harness::ConfigResult r;  // no profiles attached anywhere
  const std::string s = harness::missmap_json(r).dump();
  EXPECT_EQ(s, "{\"schema\":\"l96.missmap.v1\"}");
}

// --- MeasureSpec API --------------------------------------------------------

void expect_same_measurement(const harness::SideMeasurement& a,
                             const harness::SideMeasurement& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.critical_instructions, b.critical_instructions);
  EXPECT_EQ(a.cold.cycles(), b.cold.cycles());
  EXPECT_EQ(a.cold.icache.misses, b.cold.icache.misses);
  EXPECT_EQ(a.steady.cycles(), b.steady.cycles());
  EXPECT_EQ(a.steady.icache.repl_misses, b.steady.icache.repl_misses);
  EXPECT_EQ(a.critical.cycles(), b.critical.cycles());
  // Bit-exact doubles: same inputs, same arithmetic.
  EXPECT_EQ(a.tp_us, b.tp_us);
  EXPECT_EQ(a.critical_us, b.critical_us);
  EXPECT_EQ(a.steady.cpi(), b.steady.cpi());
  EXPECT_EQ(a.steady.mcpi(), b.steady.mcpi());
}

TEST(MeasureSpec, ExplicitDefaultParamsAreByteIdentical) {
  // Spelling out the defaulted fields measures what the defaulted spec
  // measures.
  const Captured& c =
      capture_for(net::StackKind::kTcpIp, StackConfig::Clo());
  const harness::MeasureSpec defaulted =
      client_spec(net::StackKind::kTcpIp, StackConfig::Clo(), c);
  harness::MeasureSpec spelled = defaulted;
  spelled.params = harness::MachineParams::defaults();
  expect_same_measurement(harness::measure_side(spelled),
                          harness::measure_side(defaulted));
}

TEST(MeasureSpec, ExplicitProfileIsByteIdentical) {
  // An explicit profile equal to the trace matches the defaulted one.
  const Captured& c =
      capture_for(net::StackKind::kTcpIp, StackConfig::Out());
  harness::MeasureSpec spec =
      client_spec(net::StackKind::kTcpIp, StackConfig::Out(), c);
  spec.profile = &c.traces.client;
  const auto structured = harness::measure_side(spec);
  spec.profile = nullptr;
  expect_same_measurement(harness::measure_side(spec), structured);
}

TEST(MeasureSpec, RejectsNullRegistryAndTrace) {
  harness::MeasureSpec spec;
  EXPECT_THROW(harness::measure_side(spec), std::invalid_argument);
  const Captured& c =
      capture_for(net::StackKind::kTcpIp, StackConfig::Std());
  spec = client_spec(net::StackKind::kTcpIp, StackConfig::Std(), c);
  spec.trace = nullptr;
  EXPECT_THROW(harness::measure_side(spec), std::invalid_argument);
}

// --- OwnerMap ---------------------------------------------------------------

TEST(OwnerMap, AddOwnerDeduplicatesByName) {
  sim::OwnerMap m;
  const auto a = m.add_owner("tcp_input");
  const auto b = m.add_owner("tcp_output");
  EXPECT_NE(a, b);
  EXPECT_EQ(m.add_owner("tcp_input"), a);
  EXPECT_EQ(m.owner_count(), 3u);  // includes the "?" catch-all
  EXPECT_EQ(m.name(sim::kUnknownOwner), "?");
}

TEST(OwnerMap, LookupAndDescribe) {
  sim::OwnerMap m;
  const auto f = m.add_owner("tcp_input");
  const auto d = m.add_owner("data:arena");
  m.add_region(0x1000, 0x1100, f, sim::OwnerSegment::kHot, 3);
  m.add_region(0x2000, 0x3000, d, sim::OwnerSegment::kData);
  m.add_region(0x4000, 0x4000, f, sim::OwnerSegment::kHot);  // zero-length
  m.seal();

  EXPECT_EQ(m.owner_of(0x1000), f);
  EXPECT_EQ(m.owner_of(0x10FF), f);
  EXPECT_EQ(m.owner_of(0x1100), sim::kUnknownOwner);
  EXPECT_EQ(m.owner_of(0x2FFF), d);
  EXPECT_EQ(m.owner_of(0x4000), sim::kUnknownOwner);
  EXPECT_EQ(m.region_count(), 2u);

  EXPECT_EQ(m.describe(0x1080), "tcp_input+b3@hot");
  EXPECT_EQ(m.describe(0x2000), "data:arena@data");
  EXPECT_EQ(m.describe(0x9999), "?");
}

// --- SweepRunner integration ------------------------------------------------

TEST(SweepMissMap, ProfiledJobEmitsSection) {
  harness::SweepRunner runner(2);
  std::vector<harness::SweepJob> jobs(3);
  jobs[0].client = jobs[0].server = StackConfig::Std();
  jobs[0].profile_misses = true;
  jobs[0].te_sample_count = 3;
  jobs[1].client = jobs[1].server = StackConfig::Clo();
  // jobs[1] unprofiled: same functional capture, no missmap section.
  // jobs[2]: jobs[0]'s unprofiled twin.
  jobs[2] = jobs[0];
  jobs[2].profile_misses = false;
  const auto outcomes = runner.run(jobs);
  // profile_misses must not fragment the trace-capture cache.
  EXPECT_EQ(runner.captures_performed(), 1u);

  ASSERT_TRUE(outcomes[0].result.client.miss_steady);
  EXPECT_FALSE(outcomes[1].result.client.miss_steady);

  std::ostringstream os;
  harness::write_sweep_json(os, "missmap_test", runner, jobs, outcomes);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"schema\":\"l96.sweep.v1\""), std::string::npos);
  EXPECT_NE(s.find("\"missmap\":{\"schema\":\"l96.missmap.v1\""),
            std::string::npos);
  // Exactly one row carries the section.
  EXPECT_EQ(s.find("l96.missmap.v1"), s.rfind("l96.missmap.v1"));

  // Profiling moves no number: the twin's row is the profiled row without
  // its missmap section, Te samples included.  Wall clock and capture reuse
  // describe the run, not the measurement, so both rows clear them.
  auto row = [&](std::size_t i) {
    harness::SweepOutcome o = outcomes[i];
    o.trace_reused = false;
    o.capture_wall_ms = o.measure_wall_ms = 0;
    std::ostringstream row_os;
    harness::write_sweep_json(row_os, "missmap_test", runner, {jobs[i]}, {o});
    return row_os.str();
  };
  const std::string profiled = row(0);
  const std::string twin = row(2);
  EXPECT_NE(twin.find("\"te_samples\":["), std::string::npos);
  // The section is the row's last key and the row the document's last value.
  const std::size_t missmap = profiled.find(",\"missmap\":");
  ASSERT_NE(missmap, std::string::npos);
  ASSERT_TRUE(profiled.ends_with("}]}\n"));
  EXPECT_EQ(profiled.substr(0, missmap) + "}]}\n", twin);
}

TEST(SweepMissMap, ExtraJsonRequiresSchemaSection) {
  harness::SweepOutcome o;
  EXPECT_THROW(o.extra_json("x", harness::Json(1.0)),
               std::invalid_argument);
  EXPECT_THROW(o.extra_json("x", harness::Json::object().set("a", 1)),
               std::invalid_argument);
  o.extra_json("x", harness::json_section("l96.test.v1").set("a", 1));
  const auto* obj = o.sections().as_object();
  ASSERT_NE(obj, nullptr);
  ASSERT_EQ(obj->size(), 1u);
  EXPECT_EQ(o.sections().find("x")->find("schema")->dump(),
            "\"l96.test.v1\"");
}

}  // namespace
}  // namespace l96
