// Tests for trace replay through the whole machine model.
#include <gtest/gtest.h>

#include "sim/machine.h"

namespace l96::sim {
namespace {

MachineTrace straight_line(Addr base, int n, int load_every = 0,
                           Addr data = 0x8000'0000) {
  MachineTrace t;
  for (int i = 0; i < n; ++i) {
    MachineInstr in;
    in.pc = base + 4ull * i;
    in.cls = (load_every && i % load_every == 0) ? InstrClass::kLoad
                                                 : InstrClass::kIAlu;
    in.ea = data + 8ull * i;
    t.push_back(in);
  }
  return t;
}

TEST(Machine, ColdRunCountsColdMisses) {
  Machine m;
  auto t = straight_line(0x10000, 256);  // 1 KiB of code = 32 blocks
  auto r = m.run(t);
  EXPECT_EQ(r.instructions, 256u);
  EXPECT_EQ(r.icache.accesses, 256u);
  EXPECT_EQ(r.icache.misses, 32u);
  EXPECT_EQ(r.icache.repl_misses, 0u);
}

TEST(Machine, CpiDecomposition) {
  Machine m;
  auto t = straight_line(0x10000, 512, 4);
  auto r = m.run(t);
  EXPECT_NEAR(r.cpi(), r.icpi() + r.mcpi(), 1e-9);
  EXPECT_GT(r.mcpi(), 0.0);
  EXPECT_EQ(r.cycles(), r.issue_cycles + r.stall_cycles);
}

TEST(Machine, WarmupEliminatesColdMisses) {
  Machine m;
  auto t = straight_line(0x10000, 256);
  Machine::Options o;
  o.warmup_passes = 1;
  o.scrub_fraction = 0.0;
  auto r = m.run(t, o);
  EXPECT_EQ(r.icache.misses, 0u);  // everything resident after warm-up
  EXPECT_EQ(r.stall_cycles, 0u);
}

TEST(Machine, ScrubBringsMissesBack) {
  Machine m;
  auto t = straight_line(0x10000, 256);
  Machine::Options o;
  o.warmup_passes = 1;
  o.scrub_fraction = 1.0;
  auto r = m.run(t, o);
  EXPECT_EQ(r.icache.misses, 32u);
  EXPECT_EQ(r.icache.repl_misses, 32u);  // all classified replacement
}

TEST(Machine, PartialScrubInBetween) {
  Machine m;
  auto t = straight_line(0x10000, 2048);  // 256 blocks: fills the i-cache
  Machine::Options o;
  o.warmup_passes = 1;
  o.scrub_fraction = 0.5;
  auto r = m.run(t, o);
  EXPECT_GT(r.icache.misses, 60u);
  EXPECT_LT(r.icache.misses, 200u);
}

TEST(Machine, DcacheCombinedColumn) {
  Machine m;
  MachineTrace t;
  // 4 loads from distinct blocks, 4 stores (2 merge).
  for (int i = 0; i < 4; ++i) {
    t.push_back({0x10000 + 4ull * i, InstrClass::kLoad,
                 0x8000'0000 + 64ull * i, false});
  }
  t.push_back({0x10010, InstrClass::kStore, 0x9000'0000, false});
  t.push_back({0x10014, InstrClass::kStore, 0x9000'0008, false});  // merges
  t.push_back({0x10018, InstrClass::kStore, 0x9000'0040, false});
  t.push_back({0x1001C, InstrClass::kStore, 0x9000'0044, false});  // merges
  auto r = m.run(t);
  EXPECT_EQ(r.dcache_combined.accesses, 8u);   // 4 loads + 4 stores
  EXPECT_EQ(r.dcache_combined.misses, 6u);     // 4 load misses + 2 allocs
}

TEST(Machine, BcacheTrafficSplit) {
  Machine m;
  auto t = straight_line(0x10000, 64, 8);
  t.push_back({0x11000, InstrClass::kStore, 0xA000'0000, false});
  auto r = m.run(t);  // drain_at_end retires the store
  EXPECT_GT(r.traffic.from_ifetch, 0u);
  EXPECT_GT(r.traffic.from_data, 0u);
  EXPECT_EQ(r.traffic.from_writes, 1u);
}

TEST(Machine, TakenBranchesSurface) {
  Machine m;
  MachineTrace t;
  t.push_back({0x10000, InstrClass::kIAlu, 0, false});
  t.push_back({0x10004, InstrClass::kCondBranch, 0, true});
  t.push_back({0x20000, InstrClass::kIAlu, 0, false});
  auto r = m.run(t);
  EXPECT_EQ(r.taken_branches, 1u);
}

TEST(Machine, DeterministicAcrossRuns) {
  auto t = straight_line(0x10000, 4096, 3);
  Machine::Options o;
  o.warmup_passes = 2;
  o.scrub_fraction = 0.6;
  Machine m1, m2;
  auto r1 = m1.run(t, o);
  auto r2 = m2.run(t, o);
  EXPECT_EQ(r1.cycles(), r2.cycles());
  EXPECT_EQ(r1.icache.misses, r2.icache.misses);
}

TEST(Machine, SeedChangesScrubOutcome) {
  // Different scrub seeds must evict different line subsets.
  auto survivors = [](std::uint64_t seed) {
    MemorySystem m;
    for (Addr a = 0; a < 8192; a += 32) m.ifetch(0x10000 + a);
    m.scrub_primary(0.5, 0.5, seed);
    std::vector<bool> s;
    for (Addr a = 0; a < 8192; a += 32) {
      s.push_back(m.icache().contains(0x10000 + a));
    }
    return s;
  };
  EXPECT_NE(survivors(1), survivors(2));
}

// A trace that touches every part of the model: straight-line runs and
// jumps between i-cache-aliasing functions, loads, and stores whose blocks
// alias in a small b-cache, so the machine ends with dirty lines, evictions
// and pending write-buffer entries.
MachineTrace busy_trace(Addr code, Addr data) {
  MachineTrace t;
  for (int rep = 0; rep < 3; ++rep) {
    for (int f = 0; f < 6; ++f) {
      for (int i = 0; i < 40; ++i) {
        MachineInstr in;
        in.pc = code + 8192ull * f + 4ull * i;
        in.cls = i % 5 == 0   ? InstrClass::kLoad
                 : i % 7 == 0 ? InstrClass::kStore
                 : i == 39    ? InstrClass::kJump
                              : InstrClass::kIAlu;
        in.taken = in.cls == InstrClass::kJump;
        in.ea = data + 64 * 1024ull * (i % 3) + 96ull * f + 8ull * rep;
        t.push_back(in);
      }
    }
  }
  return t;
}

MemorySystem::Config small_mem() {
  MemorySystem::Config c;
  c.bcache_bytes = 64 * 1024;
  return c;
}

void expect_same_cache(const CacheStats& a, const CacheStats& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.repl_misses, b.repl_misses);
  EXPECT_EQ(a.writebacks, b.writebacks);
}

void expect_same_run(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.issue_cycles, b.issue_cycles);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  EXPECT_EQ(a.taken_branches, b.taken_branches);
  expect_same_cache(a.icache, b.icache);
  expect_same_cache(a.dcache_combined, b.dcache_combined);
  expect_same_cache(a.dcache_reads, b.dcache_reads);
  expect_same_cache(a.bcache, b.bcache);
  EXPECT_EQ(a.stalls.ifetch_stall_cycles, b.stalls.ifetch_stall_cycles);
  EXPECT_EQ(a.stalls.load_stall_cycles, b.stalls.load_stall_cycles);
  EXPECT_EQ(a.stalls.store_stall_cycles, b.stalls.store_stall_cycles);
  EXPECT_EQ(a.traffic.from_ifetch, b.traffic.from_ifetch);
  EXPECT_EQ(a.traffic.from_data, b.traffic.from_data);
  EXPECT_EQ(a.traffic.from_writes, b.traffic.from_writes);
}

Machine::Options steady_opts() {
  Machine::Options o;
  o.warmup_passes = 3;
  o.scrub_fraction = 1.0;
  o.scrub_fraction_d = 0.55;
  o.scrub_seed = 11;
  return o;
}

// measure_side runs its cold, steady and critical replays on one machine.
// Every run with cold_start begins with reset_cold(), so a machine that has
// already run a steady replay (of this or another trace) must give exactly
// what a fresh machine gives.
TEST(MachineReuse, ColdRunAfterSteadyRunMatchesFreshMachine) {
  const MachineTrace t = busy_trace(0x10000, 0x8000'0000);
  const MachineTrace other = busy_trace(0x11000, 0x8000'0040);
  Machine used(small_mem(), Cpu::Config{});
  const RunResult warm = used.run(t, steady_opts());
  ASSERT_GT(warm.bcache.writebacks, 0u);  // the state to forget is dirty
  used.run(other, steady_opts());
  Machine::Options cold;
  cold.drain_at_end = false;  // leave write-buffer entries behind
  used.run(other, cold);

  Machine fresh(small_mem(), Cpu::Config{});
  expect_same_run(used.run(t, Machine::Options{}),
                  fresh.run(t, Machine::Options{}));
  Machine fresh2(small_mem(), Cpu::Config{});
  expect_same_run(used.run(t, steady_opts()), fresh2.run(t, steady_opts()));
}

TEST(MachineReuse, ProfiledRunsOnOneMachineMatchFreshMachines) {
  const MachineTrace t = busy_trace(0x10000, 0x8000'0000);
  OwnerMap map;
  map.add_region(0x10000, 0x10000 + 6 * 8192, map.add_owner("code"),
                 OwnerSegment::kHot);
  map.seal();
  MissProfiler shared(map);
  Machine used(small_mem(), Cpu::Config{});
  for (int pass = 0; pass < 2; ++pass) {
    Machine::Options cold;
    cold.miss_profiler = &shared;
    Machine::Options steady = steady_opts();
    steady.miss_profiler = &shared;
    const RunResult c = used.run(t, cold);
    const MissProfile cold_profile = shared.snapshot();
    const RunResult s = used.run(t, steady);
    const MissProfile steady_profile = shared.snapshot();

    MissProfiler own(map);
    cold.miss_profiler = &own;
    Machine fresh(small_mem(), Cpu::Config{});
    expect_same_run(c, fresh.run(t, cold));
    EXPECT_EQ(cold_profile.icache.misses, own.snapshot().icache.misses);
    EXPECT_EQ(cold_profile.dcache.stall_cycles,
              own.snapshot().dcache.stall_cycles);
    steady.miss_profiler = &own;
    Machine fresh2(small_mem(), Cpu::Config{});
    expect_same_run(s, fresh2.run(t, steady));
    EXPECT_EQ(steady_profile.icache.misses, own.snapshot().icache.misses);
    EXPECT_EQ(steady_profile.icache.stall_cycles,
              own.snapshot().icache.stall_cycles);
  }
}

// Fetches after the first in an i-cache block skip the lookup but are still
// hits: counted in the stats and reported to an attached profiler.
TEST(Machine, FetchesWithinABlockAreHitsSeenByTheProfiler) {
  const MachineTrace t = straight_line(0x10000, 256);  // 32 blocks
  OwnerMap map;
  map.add_region(0x10000, 0x10400, map.add_owner("code"), OwnerSegment::kHot);
  map.seal();
  MissProfiler prof(map);
  Machine::Options o;
  o.miss_profiler = &prof;
  Machine m;
  const std::vector<RunResult> runs = m.run_stream({&t, &t}, o);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].icache.accesses, 256u);
  EXPECT_EQ(runs[0].icache.misses, 32u);
  EXPECT_EQ(runs[1].icache.accesses, 256u);
  EXPECT_EQ(runs[1].icache.misses, 0u);
  // Every fetch of position 1 hits a block position 0 filled.
  EXPECT_EQ(prof.snapshot().icache.carryover_hits, 256u);
}

// Property: a trace that thrashes one i-cache set is strictly slower than
// the same instructions laid out sequentially.
TEST(MachineProperty, ConflictLayoutSlower) {
  MachineTrace seq, conflict;
  for (int rep = 0; rep < 4; ++rep) {
    for (int f = 0; f < 4; ++f) {
      for (int i = 0; i < 16; ++i) {
        seq.push_back({0x10000 + 64ull * 4 * f + 4ull * i + 0x40000ull * 0,
                       InstrClass::kIAlu, 0, false});
        // conflict: each "function" aliases the same set (8 KiB apart)
        conflict.push_back({0x10000 + 8192ull * f + 4ull * i,
                            InstrClass::kIAlu, 0, false});
      }
    }
  }
  Machine m1, m2;
  Machine::Options o;
  o.warmup_passes = 1;
  o.scrub_fraction = 0.0;
  auto rs = m1.run(seq, o);
  auto rc = m2.run(conflict, o);
  EXPECT_LT(rs.stall_cycles, rc.stall_cycles);
}

}  // namespace
}  // namespace l96::sim
