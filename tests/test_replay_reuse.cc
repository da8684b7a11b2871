// What harness::measure_side and measure_stream no longer pay for, and why
// no modeled bit moves:
//
//  * One replay machine per thread: every measurement on a thread reuses
//    it (rebuilt when the memory system or CPU config changes), and each
//    must equal the same measurement on a fresh machine — a new thread's
//    first call builds one.
//  * One lowering per side: Lowering::lower_split yields the critical
//    prefix's lowering from the full trace's.  A split on data references
//    joining an open block moves to that block's end (no production split
//    does); the prefix must equal lowering its events on their own,
//    instruction for instruction.
//  * Each warm-up state replayed once: one Machine::run_side call replays
//    a side cold, steady and critical.  The steady replay resumes from the
//    cold replay, the critical replay from a checkpoint the cold replay
//    saved after the critical prefix, and conflict-free warm-up passes
//    2..N collapse to their last scrub.  Every result, both miss profiles
//    and the state the call leaves must equal replaying every pass.
#include <gtest/gtest.h>

#include <thread>
#include <utility>

#include "code/classifier.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "net/lb.h"
#include "protocols/stack_code.h"

namespace l96 {
namespace {

using code::StackConfig;
using harness::MeasureSpec;
using harness::SideMeasurement;
using harness::StreamMeasurement;
using harness::StreamSpec;

void expect_same_cache(const sim::CacheStats& a, const sim::CacheStats& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.repl_misses, b.repl_misses);
  EXPECT_EQ(a.writebacks, b.writebacks);
}

/// Every field of a RunResult.
void expect_same_run(const sim::RunResult& a, const sim::RunResult& b) {
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

void expect_same_section(const sim::MissProfile::Section& a,
                         const sim::MissProfile::Section& b) {
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
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(a.positions[i].misses, b.positions[i].misses);
    EXPECT_EQ(a.positions[i].stall_cycles, b.positions[i].stall_cycles);
  }
}

void expect_same_profile(const sim::MissProfile& a,
                         const sim::MissProfile& b) {
  expect_same_section(a.icache, b.icache);
  expect_same_section(a.dcache, b.dcache);
}

void expect_same_profile(const std::shared_ptr<const sim::MissProfile>& a,
                         const std::shared_ptr<const sim::MissProfile>& b) {
  ASSERT_EQ(a == nullptr, b == nullptr);
  if (a != nullptr) expect_same_profile(*a, *b);
}

void expect_same_side(const SideMeasurement& a, const SideMeasurement& b) {
  EXPECT_EQ(a.config_name, b.config_name);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.critical_instructions, b.critical_instructions);
  expect_same_run(a.cold, b.cold);
  expect_same_run(a.steady, b.steady);
  expect_same_run(a.critical, b.critical);
  EXPECT_EQ(a.footprint.unused_fraction, b.footprint.unused_fraction);
  EXPECT_EQ(a.footprint.blocks_fetched, b.footprint.blocks_fetched);
  EXPECT_EQ(a.tp_us, b.tp_us);
  EXPECT_EQ(a.critical_us, b.critical_us);
  EXPECT_EQ(a.static_hot_words, b.static_hot_words);
  EXPECT_EQ(a.static_total_words, b.static_total_words);
  expect_same_profile(a.miss_cold, b.miss_cold);
  expect_same_profile(a.miss_steady, b.miss_steady);
}

void expect_same_stream(const StreamMeasurement& a,
                        const StreamMeasurement& b) {
  EXPECT_EQ(a.config_name, b.config_name);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    SCOPED_TRACE("position " + std::to_string(i));
    expect_same_run(a.positions[i].steady, b.positions[i].steady);
    EXPECT_EQ(a.positions[i].tp_us, b.positions[i].tp_us);
  }
  expect_same_profile(a.miss, b.miss);
}

/// measure_side's steady replay options.
sim::Machine::Options steady_of(const harness::MachineParams& p,
                                std::uint64_t seed_offset) {
  sim::Machine::Options o;
  o.warmup_passes = p.warmup_passes;
  o.scrub_fraction = p.scrub_fraction;
  o.scrub_fraction_d = p.scrub_fraction_d;
  o.scrub_seed = p.scrub_seed + seed_offset;
  return o;
}

/// `f()` on a new thread, whose first replay builds a fresh machine.
template <class F>
auto on_fresh_thread(F f) {
  decltype(f()) out;
  std::thread([&] { out = f(); }).join();
  return out;
}

const harness::Experiment& tcpip_std() {
  static harness::Experiment* e = [] {
    auto* x = new harness::Experiment(net::StackKind::kTcpIp,
                                      StackConfig::Std(), StackConfig::Std());
    x->capture();
    return x;
  }();
  return *e;
}

harness::MachineParams small_icache() {
  harness::MachineParams p;
  p.mem.icache_bytes = 4 * 1024;
  return p;
}

TEST(ReusedMachine, InterleavedCallsMatchFreshMachines) {
  // Sides and streams, the default machine and a 4 KB i-cache ablation,
  // profiling on and off, in an order that makes every call follow one
  // with other settings on this thread's machine.
  struct Call {
    bool stream, small, profile;
  };
  const Call calls[] = {{false, false, false}, {false, true, true},
                        {true, false, true},   {false, false, true},
                        {true, true, false},   {false, true, false},
                        {true, false, false},  {false, false, false}};
  std::uint64_t seed = 0;
  for (const Call& c : calls) {
    SCOPED_TRACE(std::string(c.stream ? "stream" : "side") +
                 (c.small ? " 4KB i-cache" : " default") +
                 (c.profile ? " profiled" : ""));
    MeasureSpec spec = tcpip_std().client_spec();
    spec.params = c.small ? small_icache() : harness::MachineParams{};
    spec.profile_misses = c.profile;
    spec.seed_offset = seed++;
    if (c.stream) {
      StreamSpec ss;
      ss.base = spec;
      ss.burst = 3;
      expect_same_stream(
          harness::measure_stream(ss),
          on_fresh_thread([&] { return harness::measure_stream(ss); }));
    } else {
      expect_same_side(
          harness::measure_side(spec),
          on_fresh_thread([&] { return harness::measure_side(spec); }));
    }
  }
}

TEST(ReusedMachine, FourThreadSweepEqualsOneThread) {
  std::vector<harness::SweepJob> jobs;
  for (const StackConfig& cfg : {StackConfig::Std(), StackConfig::All()}) {
    for (bool small : {false, true}) {
      harness::SweepJob j;
      j.kind = net::StackKind::kTcpIp;
      j.client = j.server = cfg;
      j.label = cfg.name + (small ? "/4KB" : "");
      j.params = small ? small_icache() : harness::MachineParams{};
      j.profile_misses = small;
      j.te_sample_count = 2;
      jobs.push_back(std::move(j));
    }
  }
  harness::SweepRunner one(1);
  harness::SweepRunner four(4);
  const auto a = one.run(jobs);
  const auto b = four.run(jobs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].label);
    EXPECT_EQ(a[i].label, b[i].label);
    expect_same_side(a[i].result.client, b[i].result.client);
    expect_same_side(a[i].result.server, b[i].result.server);
    EXPECT_EQ(a[i].result.te_us, b[i].result.te_us);
    EXPECT_EQ(a[i].result.te_adjusted, b[i].result.te_adjusted);
    EXPECT_EQ(a[i].te_samples, b[i].te_samples);
    EXPECT_EQ(a[i].sections().dump(), b[i].sections().dump());
  }
}

// --- one lowering per side -------------------------------------------------

code::PathTrace first_events(const code::PathTrace& t, std::size_t n) {
  code::PathTrace p;
  p.events.assign(t.events.begin(),
                  t.events.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(n, t.events.size())));
  return p;
}

void expect_same_instr(const sim::MachineInstr& a, const sim::MachineInstr& b) {
  EXPECT_EQ(a.pc, b.pc);
  EXPECT_EQ(a.cls, b.cls);
  EXPECT_EQ(a.ea, b.ea);
  EXPECT_EQ(a.taken, b.taken);
}

/// Where lower_split moves `split`: past the data references joining the
/// block open there.  A block is open when the last event before the split
/// that is not a data reference is a block event.
std::size_t block_end(const code::PathTrace& t, std::size_t split) {
  const auto data = [&t](std::size_t i) {
    return t.events[i].kind == code::EventKind::kLoad ||
           t.events[i].kind == code::EventKind::kStore;
  };
  std::size_t end = std::min(split, t.events.size());
  std::size_t open = end;
  while (open > 0 && data(open - 1)) --open;
  if (open == 0 || t.events[open - 1].kind != code::EventKind::kBlock) {
    return end;
  }
  while (end < t.events.size() && data(end)) ++end;
  return end;
}

/// lower_split(trace, split) against lowering the whole trace, and the
/// first block_end(trace, split) events on their own: the prefix is the
/// whole lowering's first prefix_size instructions and equals their own
/// lowering, final instruction included.
void expect_split_matches(const code::Lowering& lower,
                          const code::PathTrace& trace, std::size_t split) {
  const code::SplitLowering s = lower.lower_split(trace, split);
  const sim::MachineTrace whole = lower.lower(trace);
  const sim::MachineTrace own =
      lower.lower(first_events(trace, block_end(trace, split)));
  ASSERT_EQ(s.trace.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    expect_same_instr(s.trace[i], whole[i]);
  }
  ASSERT_EQ(s.prefix_size, own.size());
  ASSERT_EQ(s.prefix().data(), s.trace.data());
  for (std::size_t i = 0; i + 1 < own.size(); ++i) {
    SCOPED_TRACE("instruction " + std::to_string(i));
    expect_same_instr(whole[i], own[i]);
  }
  if (!own.empty()) {
    const sim::MachineInstr& last = whole[own.size() - 1];
    expect_same_instr(s.prefix_last, own.back());
    // The memory replay reads the full trace's copy of the final
    // instruction: same PC, and a memory operation only if unchanged.
    EXPECT_EQ(last.pc, own.back().pc);
    EXPECT_EQ(sim::is_memory(last.cls), sim::is_memory(own.back().cls));
    if (sim::is_memory(last.cls)) expect_same_instr(last, own.back());
  }
}

/// A production split: it falls on no data reference joining an open
/// block, so the prefix is exactly lower(first `split` events).
void expect_split_stays(const code::Lowering& lower,
                        const code::PathTrace& trace, std::size_t split) {
  EXPECT_EQ(block_end(trace, split), std::min(split, trace.events.size()));
  expect_split_matches(lower, trace, split);
}

TEST(SplitLowering, CriticalPrefixMatchesItsOwnLoweringOnEveryPaperSide) {
  for (net::StackKind kind : {net::StackKind::kTcpIp, net::StackKind::kRpc}) {
    for (const StackConfig& cfg : harness::paper_configs()) {
      harness::Experiment e(kind, cfg, cfg);
      e.capture();
      for (const MeasureSpec& spec : {e.client_spec(), e.server_spec()}) {
        SCOPED_TRACE(std::string(net::to_string(kind)) + "/" + cfg.name +
                     (spec.seed_offset == 0 ? " client" : " server"));
        const code::CodeImage image = harness::build_image(
            kind, cfg, *spec.registry, *spec.trace, spec.params);
        const code::Lowering lower(*spec.registry, image, cfg);
        expect_split_stays(lower, *spec.trace, spec.split);

        // measure_side's critical replay equals a fresh machine's steady
        // replay of the prefix's own lowering, its issue timing included.
        const sim::MachineTrace own =
            lower.lower(first_events(*spec.trace, spec.split));
        const sim::Machine::Options steady =
            steady_of(spec.params, spec.seed_offset);
        sim::Machine fresh(spec.params.mem, spec.params.cpu);
        const SideMeasurement m = harness::measure_side(spec);
        EXPECT_EQ(m.critical_instructions, own.size());
        expect_same_run(m.critical, fresh.run(own, steady));
      }
    }
  }
}

// measure_lb_costs' fast and slow sides: the LB's transmit point ends its
// kick block too.
TEST(SplitLowering, LbSplitsStay) {
  for (const StackConfig& cfg : {StackConfig::Pin(), StackConfig::All()}) {
    SCOPED_TRACE(cfg.name);
    net::LbWorldOptions opts;
    opts.backends = 2;
    net::LbWorld world(cfg, cfg, cfg, opts);
    world.start(1'000'000);
    ASSERT_TRUE(world.run_until_roundtrips(
        harness::MachineParams{}.warmup_roundtrips, 60'000'000));
    const auto capture = [&world](code::PathTrace& t) {
      world.lb().arm_capture(&t);
      EXPECT_TRUE(world.run_until(
          [&world] { return world.lb().capture_complete(); }, 10'000'000));
      return world.lb().tx_split();
    };
    code::PathTrace fast, slow;
    const std::size_t fast_split = capture(fast);
    for (std::size_t b = 0; b < world.backend_count(); ++b) {
      world.lb().conn_track().invalidate_path(static_cast<int>(b));
    }
    const std::size_t slow_split = capture(slow);
    EXPECT_GT(fast_split, 0u);
    EXPECT_LT(fast_split, fast.events.size());
    EXPECT_GT(slow_split, 0u);
    EXPECT_LT(slow_split, slow.events.size());

    const code::CodeRegistry& reg = world.lb().registry();
    const code::CodeImage image = harness::build_image(
        net::StackKind::kLb, cfg, reg, fast, harness::MachineParams{});
    const code::Lowering lower(reg, image, cfg);
    expect_split_stays(lower, fast, fast_split);
    expect_split_stays(lower, slow, slow_split);
  }
}

TEST(SplitLowering, BurstCostSlowTraceWithMarkers) {
  // measure_burst_costs' slow activation: the server trace bracketed by
  // slow-path markers, under the fast trace's image.  Burst costing lowers
  // it whole; split one event later, it keeps the server's split.
  harness::Experiment e(net::StackKind::kTcpIp, StackConfig::All(),
                        StackConfig::All());
  e.capture();
  const MeasureSpec spec = e.server_spec();
  code::PathTrace slow;
  slow.events.push_back({code::EventKind::kMarker, code::kInvalidFn, 0,
                         code::Marker::kSlowPathBegin, 0});
  slow.events.insert(slow.events.end(), spec.trace->events.begin(),
                     spec.trace->events.end());
  slow.events.push_back({code::EventKind::kMarker, code::kInvalidFn, 0,
                         code::Marker::kSlowPathEnd, 0});
  const code::CodeImage image = harness::build_image(
      spec.kind, spec.cfg, *spec.registry, *spec.trace, spec.params);
  const code::Lowering lower(*spec.registry, image, spec.cfg);
  expect_split_stays(lower, slow, spec.split + 1);
  expect_split_stays(lower, slow, slow.events.size());
  expect_split_stays(lower, slow, slow.events.size() + 5);
}

TEST(SplitLowering, EverySplitOfTheClassifierTraces) {
  // measure_classifier_costs' activations replay with split 0; checking
  // every split of them also reaches data references inside an open
  // block, where the split moves to the block's end.
  const StackConfig cfg = StackConfig::All();
  code::CodeRegistry reg;
  proto::register_common_code(reg, cfg);
  proto::register_tcpip_code(reg, cfg);
  proto::register_classifier_code(reg, cfg);
  const std::uint64_t entry = proto::flow_cache_entry_addr(0);

  code::FlowLookupResult hit;
  hit.cache_hit = true;
  code::FlowLookupResult miss;
  miss.scanned = true;
  miss.scan_matched = true;
  miss.rules_examined = 3;

  code::Recorder rec;
  code::PathTrace t_hit, t_miss;
  rec.enable(&t_hit);
  proto::trace_classification(rec, reg, hit, {}, entry);
  rec.enable(&t_miss);
  proto::trace_classification(rec, reg, miss, {}, entry);
  rec.disable();

  std::size_t moved = 0;
  for (const code::PathTrace* t : {&t_hit, &t_miss}) {
    const code::CodeImage image = harness::build_image(
        net::StackKind::kTcpIp, cfg, reg, *t, harness::MachineParams{});
    const code::Lowering lower(reg, image, cfg);
    for (std::size_t split = 0; split <= t->events.size(); ++split) {
      SCOPED_TRACE("split " + std::to_string(split));
      expect_split_matches(lower, *t, split);
      if (block_end(*t, split) > split) ++moved;
    }
  }
  EXPECT_GT(moved, 0u);
}

// --- each warm-up state replayed once -------------------------------------

/// The warm-up `opts` asks for with every pass replayed: a cold restart,
/// then one single-pass warm-up per pass (a lone pass has nothing to skip).
void warm_in_full(sim::Machine& m, std::span<const sim::MachineInstr> warm,
                  const sim::Machine::Options& opts) {
  if (opts.cold_start) m.mem().reset_cold();
  sim::Machine::Options pass = opts;
  pass.cold_start = false;
  pass.warmup_passes = 1;
  for (std::uint32_t p = 0; p < opts.warmup_passes; ++p) {
    pass.scrub_seed = opts.scrub_seed + p;
    m.warm_up(warm, pass);
  }
}

/// run(trace, timing, opts) with every warm-up pass replayed.
sim::RunResult run_in_full(sim::Machine& m,
                           std::span<const sim::MachineInstr> trace,
                           const sim::CpuStats& timing,
                           const sim::Machine::Options& opts) {
  warm_in_full(m, trace, opts);
  sim::Machine::Options measured = opts;
  measured.cold_start = false;
  measured.warmup_passes = 0;
  return m.run(trace, timing, measured);
}

/// Machine::run_side over a prepared side against `want`, a second machine
/// replaying the side's cold, steady and critical replays one run() at a
/// time, each warm-up pass on its own when `every_pass`: every result and
/// both miss profiles.  replay_side reports the same replays.
void expect_side_replays(const harness::PreparedSide& prepared,
                         std::uint64_t seed, sim::Machine& got,
                         sim::Machine& want, bool every_pass) {
  const sim::MachineTrace& full = prepared.lowered.trace;
  const std::span<const sim::MachineInstr> critical =
      prepared.lowered.prefix();
  const sim::Machine::Options steady = steady_of(prepared.params, seed);
  sim::MissProfiler prof(*prepared.owners);
  sim::Machine::Options profiled = steady;
  profiled.miss_profiler = &prof;
  const sim::SideRuns runs =
      got.run_side(full, prepared.full_timing, critical.size(),
                   prepared.critical_timing, profiled);

  const auto run = [&](std::span<const sim::MachineInstr> t,
                       const sim::CpuStats& timing,
                       const sim::Machine::Options& opts) {
    return every_pass ? run_in_full(want, t, timing, opts)
                      : want.run(t, timing, opts);
  };
  sim::Machine::Options cold;
  cold.miss_profiler = &prof;
  expect_same_run(runs.cold, want.run(full, prepared.full_timing, cold));
  ASSERT_TRUE(runs.cold_profile && runs.steady_profile);
  expect_same_profile(*runs.cold_profile, prof.snapshot());
  expect_same_run(runs.steady, run(full, prepared.full_timing, profiled));
  expect_same_profile(*runs.steady_profile, prof.snapshot());
  expect_same_run(runs.critical,
                  run(critical, prepared.critical_timing, steady));

  const SideMeasurement m = harness::replay_side(prepared, seed);
  expect_same_run(m.cold, runs.cold);
  expect_same_run(m.steady, runs.steady);
  expect_same_run(m.critical, runs.critical);
  expect_same_profile(*m.miss_cold, *runs.cold_profile);
  expect_same_profile(*m.miss_steady, *runs.steady_profile);
}

TEST(WarmUpOnce, EveryPaperSideEqualsReplayingEveryPass) {
  std::size_t collapsed = 0, fallback = 0;
  for (net::StackKind kind : {net::StackKind::kTcpIp, net::StackKind::kRpc}) {
    for (const StackConfig& cfg : harness::paper_configs()) {
      harness::Experiment e(kind, cfg, cfg);
      e.capture();
      for (MeasureSpec spec : {e.client_spec(), e.server_spec()}) {
        const std::string side = std::string(net::to_string(kind)) + "/" +
                                 cfg.name +
                                 (spec.seed_offset == 0 ? " client" : " server");
        spec.profile_misses = true;
        const harness::PreparedSide prepared = harness::prepare_side(spec);
        const sim::MachineTrace& full = prepared.lowered.trace;
        const std::span<const sim::MachineInstr> critical =
            prepared.lowered.prefix();
        sim::Machine m(spec.params.mem, spec.params.cpu);

        // Only BAD's conflicting layout evicts from the b-cache, so only
        // BAD replays every pass.
        m.run(full, prepared.full_timing, sim::Machine::Options{});
        const std::uint64_t full_evictions =
            m.mem().bcache().evictions_since_cold();
        m.run(critical, prepared.critical_timing, sim::Machine::Options{});
        const std::uint64_t critical_evictions =
            m.mem().bcache().evictions_since_cold();
        if (cfg.name == "BAD") {
          EXPECT_GT(full_evictions, 0u) << side;
          EXPECT_GT(critical_evictions, 0u) << side;
          ++fallback;
        } else {
          EXPECT_EQ(full_evictions, 0u) << side;
          EXPECT_EQ(critical_evictions, 0u) << side;
          ++collapsed;
        }

        sim::Machine want(spec.params.mem, spec.params.cpu);
        for (std::uint64_t seed : {0u, 1u, 9001u}) {
          SCOPED_TRACE(side + " seed offset " + std::to_string(seed));
          expect_side_replays(prepared, seed, m, want, /*every_pass=*/true);
        }
      }
    }
  }
  EXPECT_EQ(collapsed, 20u);
  EXPECT_EQ(fallback, 4u);
}

// Every paper side's critical replay, priced at the cold replay's prefix
// mark or replayed cold, equals a fresh machine's replay of the prefix.
TEST(WarmUpOnce, CriticalEqualsAFreshPrefixReplay) {
  for (net::StackKind kind : {net::StackKind::kTcpIp, net::StackKind::kRpc}) {
    for (const StackConfig& cfg : harness::paper_configs()) {
      harness::Experiment e(kind, cfg, cfg);
      e.capture();
      for (MeasureSpec spec : {e.client_spec(), e.server_spec()}) {
        const std::string side = std::string(net::to_string(kind)) + "/" +
                                 cfg.name +
                                 (spec.seed_offset == 0 ? " client" : " server");
        spec.profile_misses = true;
        const harness::PreparedSide prepared = harness::prepare_side(spec);
        sim::Machine m(spec.params.mem, spec.params.cpu);
        for (std::uint64_t seed : {0u, 1u, 9001u}) {
          SCOPED_TRACE(side + " seed offset " + std::to_string(seed));
          sim::Machine fresh(spec.params.mem, spec.params.cpu);
          expect_side_replays(prepared, seed, m, fresh, /*every_pass=*/false);
        }
      }
    }
  }
}

TEST(WarmUpOnce, SampleTeEqualsOneMeasureConfigPerSample) {
  const harness::Experiment& e = tcpip_std();
  MeasureSpec c = e.client_spec();
  MeasureSpec s = e.server_spec();
  const std::vector<double> got = harness::sample_te(c, s, 210.0, 3);
  ASSERT_EQ(got.size(), 3u);
  for (std::uint64_t k = 0; k < 3; ++k) {
    c.seed_offset = 100 + k * 7;
    s.seed_offset = 200 + k * 13;
    EXPECT_EQ(got[k], harness::measure_config(c, s, 210.0).te_us);
  }
  EXPECT_TRUE(harness::sample_te(c, s, 210.0, 0).empty());
}

// The sweep prepares each side once, with profiling when a job asks for a
// miss map; the samples it draws from those sides match the unprofiled
// spec path bit for bit.
TEST(WarmUpOnce, SampleTeOverProfiledPreparedSidesMatchesSpecs) {
  const harness::Experiment& e = tcpip_std();
  MeasureSpec c = e.client_spec();
  MeasureSpec s = e.server_spec();
  const std::vector<double> want = harness::sample_te(c, s, 210.0, 3);
  c.profile_misses = s.profile_misses = true;
  const harness::PreparedSide pc = harness::prepare_side(c);
  const harness::PreparedSide ps = harness::prepare_side(s);
  ASSERT_TRUE(pc.owners.has_value());
  EXPECT_EQ(harness::sample_te(pc, ps, 210.0, 3), want);
  EXPECT_TRUE(harness::sample_te(pc, ps, 210.0, 0).empty());
}

}  // namespace
}  // namespace l96
