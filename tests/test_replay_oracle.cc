// A randomized differential oracle for Machine's replay shortcuts: the
// warm-up collapse, the measured passes priced from the cold replay's miss
// log and the critical pass priced at the prefix mark.  A seeded generator
// draws small traces and small memory systems, so i-, d- and b-cache sets
// conflict, the write buffer fills, and pending writes meet fetch-ahead
// probes; a plain reference replays every pass, one at a time, with no log.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/machine.h"

namespace l96::sim {
namespace {

/// Cases per run; each is a few dozen instructions, so tier-1 runs them all
/// in well under a second.
constexpr int kCases = 4000;

/// xorshift64*: the same draws on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    s_ ^= s_ >> 12;
    s_ ^= s_ << 25;
    s_ ^= s_ >> 27;
    return s_ * 0x2545F4914F6CDD1DULL;
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return (next() >> 11) % n; }
  /// True with probability num/den.
  bool chance(std::uint64_t num, std::uint64_t den) { return below(den) < num; }
  template <typename T>
  T pick(std::initializer_list<T> from) {
    return from.begin()[below(from.size())];
  }

 private:
  std::uint64_t s_;
};

// Code sits at 0 (so a miss on block 32 can follow one on block 0), data
// at kData; both span a few sets of the small caches drawn below.
constexpr Addr kData = 0x2000;

struct Case {
  MemorySystem::Config mem;
  MachineTrace trace;
  std::size_t prefix = 0;
  Machine::Options opts;  ///< the steady options, without a profiler
  bool profiled = false;
};

Case draw_case(Rng& rng) {
  Case c;
  c.mem.icache_bytes = rng.pick<std::uint32_t>({64, 128, 256});
  c.mem.dcache_bytes = rng.pick<std::uint32_t>({64, 128, 256});
  c.mem.bcache_bytes = rng.pick<std::uint32_t>({256, 1024, 64 * 1024});
  c.mem.wbuf_depth = static_cast<std::uint32_t>(1 + rng.below(4));
  c.mem.ifetch_prefetch_next = rng.chance(1, 2);

  const Addr code_blocks = 2 + rng.below(23);
  const Addr data_blocks = 1 + rng.below(16);
  const auto code_pc = [&] { return 32 * rng.below(code_blocks) + 4 * rng.below(8); };
  const std::size_t n = 1 + rng.below(60);
  Addr pc = code_pc();
  for (std::size_t i = 0; i < n; ++i) {
    MachineInstr in;
    in.pc = pc;
    pc += 4;
    const std::uint64_t kind = rng.below(20);
    if (kind < 5) {
      in.cls = InstrClass::kLoad;
      in.ea = kData + 32 * rng.below(data_blocks) + 8 * rng.below(4);
    } else if (kind < 9) {
      in.cls = InstrClass::kStore;
      // One store in four writes the block after a code block, which a
      // fetch-ahead probe may meet while the write is still pending.
      in.ea = rng.chance(1, 4)
                  ? 32 * (rng.below(code_blocks) + 1)
                  : kData + 32 * rng.below(data_blocks) + 8 * rng.below(4);
    } else if (kind < 12) {
      in.cls = rng.pick({InstrClass::kJump, InstrClass::kCondBranch});
      in.taken = true;
      pc = code_pc();
    }
    c.trace.push_back(in);
  }
  c.prefix = rng.below(n + 1);

  c.opts.warmup_passes = static_cast<std::uint32_t>(rng.below(5));
  c.opts.scrub_fraction = rng.pick({0.0, 0.3, 1.0});
  c.opts.scrub_fraction_d = rng.pick({-1.0, 0.0, 0.55, 1.0});
  c.opts.scrub_seed = rng.next();
  c.opts.drain_at_end = !rng.chance(1, 4);
  c.profiled = rng.chance(1, 2);
  return c;
}

/// run(trace, timing, opts) with every warm-up pass replayed on its own: a
/// cold restart, one single-pass warm_up() per pass, then a measured run()
/// with no passes.
RunResult reference(Machine& m, std::span<const MachineInstr> trace,
                     const CpuStats& timing, const Machine::Options& opts) {
  if (opts.cold_start) m.mem().reset_cold();
  Machine::Options pass = opts;
  pass.cold_start = false;
  pass.warmup_passes = 1;
  pass.miss_profiler = nullptr;
  for (std::uint32_t p = 0; p < opts.warmup_passes; ++p) {
    pass.scrub_seed = opts.scrub_seed + p;
    m.warm_up(trace, pass);
  }
  Machine::Options measured = opts;
  measured.cold_start = false;
  measured.warmup_passes = 0;
  return m.run(trace, timing, measured);
}

void expect_same_cache(const CacheStats& a, const CacheStats& b,
                       const char* what) {
  EXPECT_EQ(a.accesses, b.accesses) << what;
  EXPECT_EQ(a.misses, b.misses) << what;
  EXPECT_EQ(a.repl_misses, b.repl_misses) << what;
  EXPECT_EQ(a.writebacks, b.writebacks) << what;
}

void expect_same_run(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.issue_cycles, b.issue_cycles);
  EXPECT_EQ(a.taken_branches, b.taken_branches);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  expect_same_cache(a.icache, b.icache, "i-cache");
  expect_same_cache(a.dcache_combined, b.dcache_combined, "d-cache combined");
  expect_same_cache(a.dcache_reads, b.dcache_reads, "d-cache reads");
  expect_same_cache(a.bcache, b.bcache, "b-cache");
  EXPECT_EQ(a.stalls.ifetch_stall_cycles, b.stalls.ifetch_stall_cycles);
  EXPECT_EQ(a.stalls.load_stall_cycles, b.stalls.load_stall_cycles);
  EXPECT_EQ(a.stalls.store_stall_cycles, b.stalls.store_stall_cycles);
  EXPECT_EQ(a.traffic.from_ifetch, b.traffic.from_ifetch);
  EXPECT_EQ(a.traffic.from_data, b.traffic.from_data);
  EXPECT_EQ(a.traffic.from_writes, b.traffic.from_writes);
}

void expect_same_section(const MissProfile::Section& a,
                         const MissProfile::Section& b) {
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.repl_misses, b.repl_misses);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  EXPECT_EQ(a.carryover_hits, b.carryover_hits);
  ASSERT_EQ(a.owners.size(), b.owners.size());
  for (std::size_t i = 0; i < a.owners.size(); ++i) {
    EXPECT_EQ(a.owners[i].owner, b.owners[i].owner);
    EXPECT_EQ(a.owners[i].misses, b.owners[i].misses);
    EXPECT_EQ(a.owners[i].repl_misses, b.owners[i].repl_misses);
    EXPECT_EQ(a.owners[i].stall_cycles, b.owners[i].stall_cycles);
    EXPECT_EQ(a.owners[i].carryover_hits, b.owners[i].carryover_hits);
  }
  ASSERT_EQ(a.conflicts.size(), b.conflicts.size());
  for (std::size_t i = 0; i < a.conflicts.size(); ++i) {
    EXPECT_EQ(a.conflicts[i].victim, b.conflicts[i].victim);
    EXPECT_EQ(a.conflicts[i].evictor, b.conflicts[i].evictor);
    EXPECT_EQ(a.conflicts[i].count, b.conflicts[i].count);
  }
  ASSERT_EQ(a.sets.size(), b.sets.size());
  for (std::size_t i = 0; i < a.sets.size(); ++i) {
    EXPECT_EQ(a.sets[i].set, b.sets[i].set);
    EXPECT_EQ(a.sets[i].misses, b.sets[i].misses);
    EXPECT_EQ(a.sets[i].owners, b.sets[i].owners);
  }
  ASSERT_EQ(a.positions.size(), b.positions.size());
}

void expect_same_profile(const std::optional<MissProfile>& a,
                         const MissProfile& b) {
  ASSERT_TRUE(a.has_value());
  expect_same_section(a->icache, b.icache);
  expect_same_section(a->dcache, b.dcache);
}

OwnerMap owner_map() {
  OwnerMap map;
  map.add_region(0, 0x100, map.add_owner("f"), OwnerSegment::kHot);
  map.add_region(0x100, 0x1000, map.add_owner("g"), OwnerSegment::kHot);
  map.add_region(kData, kData + 0x1000, map.add_owner("data"),
                 OwnerSegment::kData);
  map.seal();
  return map;
}

/// What a case exercises, judged by plain replays: whether the steady
/// passes can collapse, and whether the prefix's cold replay leaves writes
/// pending that draining keeps or would evict with.
struct Coverage {
  int collapsing = 0, conflicting = 0;
  int pending_kept = 0, pending_evicting = 0;

  void add(const Case& c) {
    if (c.opts.warmup_passes == 0 || c.opts.scrub_fraction < 1.0) return;
    Machine m(c.mem, Cpu::Config{});
    m.run(c.trace, Machine::Options{});
    ++(m.mem().bcache().evictions_since_cold() == 0 ? collapsing
                                                    : conflicting);
    Machine::Options undrained;
    undrained.drain_at_end = false;
    m.run(MachineTrace(c.trace.begin(),
                       c.trace.begin() + static_cast<long>(c.prefix)),
          undrained);
    if (m.mem().wbuf().pending() == 0 ||
        m.mem().bcache().evictions_since_cold() > 0) {
      return;
    }
    m.mem().drain_writes();
    ++(m.mem().bcache().evictions_since_cold() == 0 ? pending_kept
                                                    : pending_evicting);
  }
};

TEST(ReplayOracle, RunSideAndRunEqualEveryPassReplayed) {
  const OwnerMap map = owner_map();
  Rng rng(0x5EED'0A11'CE55'1996ULL);
  Coverage coverage;
  for (int i = 0; i < kCases; ++i) {
    const Case c = draw_case(rng);
    SCOPED_TRACE("case " + std::to_string(i) + ": " +
                 std::to_string(c.trace.size()) + " instructions, prefix " +
                 std::to_string(c.prefix) + ", " +
                 std::to_string(c.opts.warmup_passes) + " passes");
    coverage.add(c);
    const std::span<const MachineInstr> trace(c.trace);
    const std::span<const MachineInstr> prefix = trace.first(c.prefix);

    MissProfiler prof(map);
    Machine::Options steady = c.opts;
    if (c.profiled) steady.miss_profiler = &prof;
    Machine got(c.mem, Cpu::Config{});
    const CpuStats timing = got.cpu().time_trace(trace);
    const CpuStats prefix_timing = got.cpu().time_trace(prefix);
    const SideRuns runs =
        got.run_side(trace, timing, c.prefix, prefix_timing, steady);

    Machine want(c.mem, Cpu::Config{});
    Machine::Options cold;
    cold.miss_profiler = steady.miss_profiler;
    expect_same_run(runs.cold, reference(want, trace, timing, cold));
    if (c.profiled) expect_same_profile(runs.cold_profile, prof.snapshot());
    expect_same_run(runs.steady, reference(want, trace, timing, steady));
    if (c.profiled) {
      expect_same_profile(runs.steady_profile, prof.snapshot());
    } else {
      EXPECT_FALSE(runs.cold_profile || runs.steady_profile);
    }
    expect_same_run(runs.critical,
                    reference(want, prefix, prefix_timing, c.opts));

    // run() collapses the warm-up too, and promises the state it leaves.
    expect_same_run(got.run(trace, timing, steady),
                    reference(want, trace, timing, steady));
    EXPECT_TRUE(got.mem().state() == want.mem().state());
    if (HasFailure()) break;
  }
  // Each shortcut and each fallback is exercised, not only drawn.
  EXPECT_GT(coverage.collapsing, kCases / 20);
  EXPECT_GT(coverage.conflicting, kCases / 20);
  EXPECT_GT(coverage.pending_kept, kCases / 50);
  EXPECT_GT(coverage.pending_evicting, 0);
}

}  // namespace
}  // namespace l96::sim
