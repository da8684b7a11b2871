// Tests for trace replay through the whole machine model.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

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

TEST(MachineReuse, SuppliedTimingEqualsTimingInsideTheRun) {
  const MachineTrace t = busy_trace(0x10000, 0x8000'0000);
  Machine m(small_mem(), Cpu::Config{});
  const CpuStats timing = m.cpu().time_trace(t);
  expect_same_run(m.run(t, timing, steady_opts()), m.run(t, steady_opts()));
  expect_same_run(m.run(t, timing, Machine::Options{}),
                  m.run(t, Machine::Options{}));

  // Timing of another length is rejected, not silently mixed in.
  const std::span<const MachineInstr> shorter(t.data(), t.size() - 1);
  EXPECT_THROW(m.run(shorter, timing, steady_opts()), std::invalid_argument);
}

void expect_same_side(const SideRuns& a, const SideRuns& b) {
  expect_same_run(a.cold, b.cold);
  expect_same_run(a.steady, b.steady);
  expect_same_run(a.critical, b.critical);
}

// A side's cold replay logs its misses for its measured passes; sides
// interleaved with run() and run_stream() on one machine, over two traces
// and two memory systems (the small one evicts from the b-cache, so its
// sides replay every pass), must each equal a fresh machine's.
TEST(MachineReuse, SidesBetweenOtherReplaysMatchFreshMachines) {
  const MachineTrace a = busy_trace(0x10000, 0x8000'0000);
  const MachineTrace b = busy_trace(0x11000, 0x8008'0040);
  for (const MemorySystem::Config& mem :
       {MemorySystem::Config{}, small_mem()}) {
    SCOPED_TRACE(mem.bcache_bytes);
    const auto side = [](Machine& m, const MachineTrace& t, std::size_t k) {
      const std::span<const MachineInstr> prefix(t.data(), k);
      return m.run_side(t, m.cpu().time_trace(t), k,
                        m.cpu().time_trace(prefix), steady_opts());
    };
    const auto fresh_side = [&](const MachineTrace& t, std::size_t k) {
      Machine fresh(mem, Cpu::Config{});
      return side(fresh, t, k);
    };
    const auto fresh_run = [&](const MachineTrace& t,
                               const Machine::Options& o) {
      Machine fresh(mem, Cpu::Config{});
      return fresh.run(t, o);
    };
    Machine used(mem, Cpu::Config{});
    expect_same_side(side(used, a, a.size() / 2), fresh_side(a, a.size() / 2));
    expect_same_run(used.run(b, steady_opts()), fresh_run(b, steady_opts()));
    expect_same_side(side(used, b, b.size()), fresh_side(b, b.size()));
    const std::vector<RunResult> stream =
        used.run_stream({&a, &b}, steady_opts());
    Machine fresh(mem, Cpu::Config{});
    const std::vector<RunResult> want =
        fresh.run_stream({&a, &b}, steady_opts());
    ASSERT_EQ(stream.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_same_run(stream[i], want[i]);
    }
    expect_same_side(side(used, a, 7), fresh_side(a, 7));
    expect_same_run(used.run(a, Machine::Options{}),
                    fresh_run(a, Machine::Options{}));
    expect_same_side(side(used, b, 1), fresh_side(b, 1));
  }
}

// --- each warm-up state replayed once ---------------------------------------

/// The warm-up `opts` asks for with every pass replayed: a cold restart,
/// then one single-pass warm-up per pass (a lone pass has nothing to skip).
void warm_in_full(Machine& m, const MachineTrace& warm,
                  const Machine::Options& opts) {
  if (opts.cold_start) m.mem().reset_cold();
  Machine::Options pass = opts;
  pass.cold_start = false;
  pass.warmup_passes = 1;
  for (std::uint32_t p = 0; p < opts.warmup_passes; ++p) {
    pass.scrub_seed = opts.scrub_seed + p;
    m.warm_up(warm, pass);
  }
}

/// run(trace, opts) with every warm-up pass replayed.
RunResult run_in_full(Machine& m, const MachineTrace& trace,
                      const Machine::Options& opts) {
  warm_in_full(m, trace, opts);
  Machine::Options measured = opts;
  measured.cold_start = false;
  measured.warmup_passes = 0;
  return m.run(trace, measured);
}

void expect_same_state(const MemorySystem::State& a,
                       const MemorySystem::State& b) {
  EXPECT_TRUE(a.icache == b.icache) << "i-cache lines or ever-seen set";
  EXPECT_TRUE(a.dcache == b.dcache) << "d-cache lines or ever-seen set";
  EXPECT_TRUE(a.bcache == b.bcache) << "b-cache lines or ever-seen set";
  EXPECT_EQ(a.last_imiss_block, b.last_imiss_block);
  EXPECT_EQ(a.imissed, b.imissed);
  EXPECT_EQ(a.wbuf, b.wbuf);
}

void expect_same_section(const MissProfile::Section& a,
                         const MissProfile::Section& b) {
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.repl_misses, b.repl_misses);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  ASSERT_EQ(a.owners.size(), b.owners.size());
  for (std::size_t i = 0; i < a.owners.size(); ++i) {
    EXPECT_EQ(a.owners[i].owner, b.owners[i].owner);
    EXPECT_EQ(a.owners[i].misses, b.owners[i].misses);
    EXPECT_EQ(a.owners[i].repl_misses, b.owners[i].repl_misses);
    EXPECT_EQ(a.owners[i].stall_cycles, b.owners[i].stall_cycles);
  }
  EXPECT_EQ(a.conflicts.size(), b.conflicts.size());
  EXPECT_EQ(a.sets.size(), b.sets.size());
}

void expect_same_profile(const std::optional<MissProfile>& a,
                         const MissProfile& b) {
  ASSERT_TRUE(a.has_value());
  expect_same_section(a->icache, b.icache);
  expect_same_section(a->dcache, b.dcache);
}

/// run_side() over `t` with a prefix of `k` instructions, against a fresh
/// machine replaying each of its replays one pass at a time: every result
/// and both miss profiles (when `profiled`).
void expect_side(const MemorySystem::Config& mem, const MachineTrace& t,
                 std::size_t k, const Machine::Options& opts,
                 bool profiled = true) {
  SCOPED_TRACE("prefix of " + std::to_string(k) +
               (profiled ? ", profiled" : ", unprofiled"));
  const MachineTrace own(t.begin(), t.begin() + static_cast<long>(k));
  OwnerMap map;
  map.add_region(0x10000, 0x20000, map.add_owner("code"), OwnerSegment::kHot);
  map.add_region(0x8000'0000, 0x8100'0000, map.add_owner("data"),
                 OwnerSegment::kData);
  map.seal();
  MissProfiler prof(map);
  Machine::Options steady = opts;
  if (profiled) steady.miss_profiler = &prof;

  Machine got(mem, Cpu::Config{});
  const SideRuns runs =
      got.run_side(t, got.cpu().time_trace(t), k,
                   got.cpu().time_trace(own), steady);

  Machine want(mem, Cpu::Config{});
  Machine::Options cold;
  cold.miss_profiler = steady.miss_profiler;
  expect_same_run(runs.cold, want.run(t, cold));
  if (profiled) {
    expect_same_profile(runs.cold_profile, prof.snapshot());
  } else {
    EXPECT_FALSE(runs.cold_profile.has_value());
  }
  expect_same_run(runs.steady, run_in_full(want, t, steady));
  if (profiled) {
    expect_same_profile(runs.steady_profile, prof.snapshot());
  } else {
    EXPECT_FALSE(runs.steady_profile.has_value());
  }
  expect_same_run(runs.critical, run_in_full(want, own, opts));
}

struct WarmCase {
  std::string name;
  MemorySystem::Config mem;
  MachineTrace trace;
  Machine::Options opts;
};

// busy_trace's data blocks lie 64 KiB apart, so they collide in
// small_mem()'s 64 KiB b-cache; with the data at 0x8008'0000 the default
// 2 MB b-cache holds every block the trace touches.
std::vector<WarmCase> warm_cases() {
  const MachineTrace clean = busy_trace(0x10000, 0x8008'0000);
  std::vector<WarmCase> cases;
  for (std::uint32_t w : {0u, 1u, 2u, 5u}) {
    Machine::Options o = steady_opts();
    o.warmup_passes = w;
    cases.push_back({std::to_string(w) + " passes", {}, clean, o});
  }
  Machine::Options warm = steady_opts();
  warm.cold_start = false;
  cases.push_back({"warm start", {}, clean, warm});
  // A partly scrubbed i-cache keeps some blocks, so a later pass's last
  // i-miss comes earlier than the cold pass's.
  Machine::Options half = steady_opts();
  half.scrub_fraction = 0.5;
  cases.push_back({"i-scrub 0.5", {}, straight_line(0x10000, 2048, 4), half});
  cases.push_back({"b-cache conflicts", small_mem(),
                   busy_trace(0x10000, 0x8000'0000), steady_opts()});
  // One instruction loading a block of its own b-cache set: after a cold
  // pass the set holds the data; a later pass finds the data in the
  // unscrubbed d-cache, so its fetch leaves the code in the set instead.
  Machine::Options keep_d = steady_opts();
  keep_d.scrub_fraction_d = 0.0;
  cases.push_back({"b-cache conflicts", small_mem(),
                   {{0x10000, InstrClass::kLoad, 0x8001'0000, false}}, keep_d});
  return cases;
}

TEST(MachineWarmUp, CollapsedPassesEqualEveryPassReplayed) {
  const MachineTrace other = busy_trace(0x11000, 0x8000'0040);
  for (const WarmCase& c : warm_cases()) {
    SCOPED_TRACE(c.name);
    // Both machines first replay another trace, so a warm start sees state.
    Machine got(c.mem, Cpu::Config{});
    Machine want(c.mem, Cpu::Config{});
    got.run(other, steady_opts());
    want.run(other, steady_opts());
    got.warm_up(c.trace, c.opts);
    warm_in_full(want, c.trace, c.opts);
    expect_same_state(got.mem().state(), want.mem().state());

    got.run(other, steady_opts());
    want.run(other, steady_opts());
    expect_same_run(got.run(c.trace, c.opts), run_in_full(want, c.trace, c.opts));
    expect_same_state(got.mem().state(), want.mem().state());

    if (!c.opts.cold_start) continue;
    // The same passes taken from run_side()'s cold replay, and from its
    // checkpoint after the whole trace.
    got.run(c.trace, Machine::Options{});
    const bool conflicts = got.mem().bcache().evictions_since_cold() > 0;
    EXPECT_EQ(conflicts, c.name == "b-cache conflicts");
    expect_side(c.mem, c.trace, c.trace.size(), c.opts);
  }
}

TEST(MachineSide, ChecksItsArgumentsAndReplaysNoPassesCold) {
  const MachineTrace t = busy_trace(0x10000, 0x8008'0000);
  const std::span<const MachineInstr> prefix(t.data(), 100);
  Machine m;
  const CpuStats timing = m.cpu().time_trace(t);
  const CpuStats prefix_timing = m.cpu().time_trace(prefix);
  const Machine::Options steady = steady_opts();
  EXPECT_THROW(m.run_side(t, timing, t.size() + 1, timing, steady),
               std::invalid_argument);
  EXPECT_THROW(m.run_side(t, prefix_timing, 100, prefix_timing, steady),
               std::invalid_argument);
  EXPECT_THROW(m.run_side(t, timing, 100, timing, steady),
               std::invalid_argument);
  EXPECT_THROW(m.run_side(t, timing, 99, prefix_timing, steady),
               std::invalid_argument);
  Machine::Options warm = steady;
  warm.cold_start = false;
  EXPECT_THROW(m.run_side(t, timing, 100, prefix_timing, warm),
               std::invalid_argument);

  // No warm-up passes: the steady and critical replays are cold replays.
  Machine::Options none = steady;
  none.warmup_passes = 0;
  const SideRuns runs = m.run_side(t, timing, 100, prefix_timing, none);
  Machine fresh;
  expect_same_run(runs.steady, fresh.run(t, none));
  expect_same_run(runs.critical, fresh.run(prefix, prefix_timing, none));
  EXPECT_FALSE(runs.cold_profile.has_value());
  EXPECT_FALSE(runs.steady_profile.has_value());
}

// --- the critical prefix priced at the cold replay's prefix mark -----------

TEST(MachineSide, PrefixesOfEveryLengthResumeAsTheirOwnReplay) {
  const MachineTrace t = busy_trace(0x10000, 0x8008'0000);
  Machine::Options one = steady_opts();
  one.warmup_passes = 1;
  Machine::Options none = steady_opts();
  none.warmup_passes = 0;
  for (const Machine::Options& opts : {steady_opts(), one, none}) {
    SCOPED_TRACE(std::to_string(opts.warmup_passes) + " passes");
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                          t.size() / 2, t.size() - 1, t.size()}) {
      expect_side(MemorySystem::Config{}, t, k, opts);
    }
  }
}

// busy_trace evicts from small_mem()'s b-cache, so the prefix mark follows
// evictions and dirty lines, and the critical passes are replayed in full.
TEST(MachineSide, ConflictingTracesFallBackToEveryPass) {
  const MachineTrace busy = busy_trace(0x10000, 0x8000'0000);
  Machine::Options keep_d = steady_opts();
  keep_d.scrub_fraction_d = 0.0;
  const MachineTrace one_load = {
      {0x10000, InstrClass::kLoad, 0x8001'0000, false},
      {0x10004, InstrClass::kIAlu, 0, false}};
  for (std::size_t k : {busy.size() / 2, busy.size()}) {
    Machine m(small_mem(), Cpu::Config{});
    m.run(MachineTrace(busy.begin(), busy.begin() + static_cast<long>(k)),
          Machine::Options{});
    EXPECT_GT(m.mem().bcache().evictions_since_cold(), 0u);
    expect_side(small_mem(), busy, k, steady_opts());
  }
  for (std::size_t k : {std::size_t{1}, std::size_t{2}}) {
    Machine m(small_mem(), Cpu::Config{});
    m.run(MachineTrace(one_load.begin(),
                       one_load.begin() + static_cast<long>(k)),
          Machine::Options{});
    EXPECT_GT(m.mem().bcache().evictions_since_cold(), 0u);
    expect_side(small_mem(), one_load, k, keep_d);
  }
}

// --- measured passes priced from the cold replay's miss log -----------------

MachineInstr alu(Addr pc) { return {pc, InstrClass::kIAlu, 0, false}; }
MachineInstr jump(Addr pc) { return {pc, InstrClass::kJump, 0, true}; }
MachineInstr load(Addr pc, Addr ea) {
  return {pc, InstrClass::kLoad, ea, false};
}
MachineInstr store(Addr pc, Addr ea) {
  return {pc, InstrClass::kStore, ea, false};
}

struct PricedCase {
  std::string name;
  MachineTrace trace;
  std::vector<std::size_t> prefixes;
  Machine::Options opts = steady_opts();
  MemorySystem::Config mem = {};
};

std::vector<PricedCase> priced_cases() {
  std::vector<PricedCase> cases;
  // The cold pass misses 0x10020, then 0x10000: the measured pass's first
  // miss, 0x10020 again, is the sequential successor of the last.
  cases.push_back({"sequential restart",
                   {alu(0x10020), alu(0x10024), jump(0x10028), alu(0x10000),
                    alu(0x10004)},
                   {3, 5}});
  // The misses on 0x10000 and 0x10400 probe 0x10020 and 0x10420; only the
  // suffix fetches 0x10020, so its probe hits the b-cache in the steady
  // pass and misses in the critical one.
  cases.push_back({"probe of a suffix block",
                   {alu(0x10000), jump(0x10004), alu(0x10400), jump(0x10404),
                    alu(0x10020), alu(0x10024)},
                   {4, 6}});
  // Stores to ten blocks of a 4-deep buffer, one per instruction, around
  // loads: a prefix of 7 ends with four entries pending.
  MachineTrace writes = {load(0x10000, 0x8000'0000)};
  for (Addr i = 0; i < 10; ++i) {
    writes.push_back(store(0x10004 + 4 * i, 0x8000'4000 + 32 * i));
  }
  writes.push_back(load(0x1002C, 0x8000'0008));
  cases.push_back({"writes pending at the prefix end", writes, {7, 11, 12}});
  MachineTrace no_loads = straight_line(0x10000, 300);
  for (std::size_t i = 0; i < no_loads.size(); i += 3) {
    no_loads[i].cls = InstrClass::kStore;
  }
  cases.push_back({"no loads", no_loads, {0, 1, 150, 299, 300}});
  cases.push_back(
      {"no stores", straight_line(0x10000, 300, 4), {0, 1, 150, 299, 300}});
  cases.push_back(
      {"one instruction", {load(0x10000, 0x8000'0000)}, {0, 1}});
  const MachineTrace busy = busy_trace(0x10000, 0x8008'0000);
  const std::vector<std::size_t> busy_prefixes = {0, 1, busy.size() / 2,
                                                  busy.size() - 1, busy.size()};
  for (const double d : {0.0, 1.0}) {
    PricedCase c{"d-scrub " + std::to_string(d), busy, busy_prefixes};
    c.opts.scrub_fraction_d = d;
    cases.push_back(c);
  }
  PricedCase undrained{"no drain at the end", busy, busy_prefixes};
  undrained.opts.drain_at_end = false;
  cases.push_back(undrained);
  // A prefix of 3 ends with the write to 0x10420 pending, which the i-miss
  // on 0x10400 probes: the cold pass's probe misses, a later pass's hits,
  // since the drain wrote the block to the b-cache.
  cases.push_back({"pending write probed",
                   {store(0x10000, 0x10420), jump(0x10004), alu(0x10400),
                    alu(0x10404)},
                   {3, 4}});
  // In small_mem()'s 64 KiB b-cache the write to 0x8001'0000, pending from
  // a prefix of 2 on, shares a set with the block the load brought in, so
  // its drain evicts and the passes are replayed.
  PricedCase evicting{"pending write evicts on drain",
                      {load(0x10400, 0x8000'0000), store(0x10404, 0x8001'0000),
                       alu(0x10408)},
                      {1, 2, 3}};
  evicting.mem = small_mem();
  cases.push_back(evicting);
  return cases;
}

TEST(MachineSide, PricedPassesEqualEveryPassReplayed) {
  for (const PricedCase& c : priced_cases()) {
    SCOPED_TRACE(c.name);
    // The default b-cache keeps every block, so the passes are priced;
    // small_mem()'s evicts on a drain, so they fall back.
    Machine m(c.mem, Cpu::Config{});
    m.run(c.trace, Machine::Options{});
    EXPECT_EQ(m.mem().bcache().evictions_since_cold() == 0,
              c.mem == MemorySystem::Config{});
    for (const std::size_t k : c.prefixes) {
      expect_side(c.mem, c.trace, k, c.opts);
      expect_side(c.mem, c.trace, k, c.opts, /*profiled=*/false);
    }
  }
}

// What each branch of the priced pass sees, on the cases built for it.
TEST(MachineSide, PricedPassesTakeEachBranch) {
  const MemorySystem::Config mem;
  const std::vector<PricedCase> cases = priced_cases();
  const auto trace = [&cases](const std::string& name) -> const MachineTrace& {
    for (const PricedCase& c : cases) {
      if (c.name == name) return c.trace;
    }
    throw std::out_of_range(name);
  };
  const auto side = [](const MachineTrace& t, std::size_t k) {
    Machine m;
    const std::span<const MachineInstr> prefix(t.data(), k);
    return m.run_side(t, m.cpu().time_trace(t), k,
                      m.cpu().time_trace(prefix), steady_opts());
  };
  // Sequential to the cold pass's last miss: one b_hit_seq_cycles fill.
  const SideRuns seq = side(trace("sequential restart"), 5);
  EXPECT_EQ(seq.steady.stalls.ifetch_stall_cycles,
            mem.b_hit_seq_cycles + mem.b_hit_cycles);
  EXPECT_EQ(side(trace("sequential restart"), 3)
                .critical.stalls.ifetch_stall_cycles,
            mem.b_hit_cycles);
  // Three probes in the steady pass, of which 0x10020 hits; both of the
  // critical pass's miss.
  const SideRuns probe = side(trace("probe of a suffix block"), 4);
  EXPECT_EQ(probe.steady.bcache.misses, 2u);
  EXPECT_EQ(probe.critical.bcache.misses, 2u);
  EXPECT_EQ(probe.critical.bcache.accesses, 4u);
  // The write pending at the prefix mark is in the b-cache before a later
  // pass probes it: only the probe of 0x10020 misses.
  EXPECT_EQ(side(trace("pending write probed"), 3).critical.bcache.misses, 1u);
  // Four writes pending when the cold pass reaches the prefix's end.
  Machine m;
  Machine::Options undrained;
  undrained.drain_at_end = false;
  const MachineTrace& writes_trace = trace("writes pending at the prefix end");
  m.run(MachineTrace(writes_trace.begin(), writes_trace.begin() + 7),
        undrained);
  EXPECT_EQ(m.mem().wbuf().pending(), 4u);
  const SideRuns writes = side(writes_trace, 7);
  EXPECT_EQ(writes.critical.traffic.from_writes, 6u);
  EXPECT_EQ(writes.critical.stalls.store_stall_cycles,
            2u * mem.wbuf_retire_cycles);
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
