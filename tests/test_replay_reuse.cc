// What harness::measure_side and measure_stream no longer pay for, and why
// no modeled bit moves:
//
//  * One replay machine per thread: every measurement on a thread reuses
//    it (rebuilt when the memory system or CPU config changes), and each
//    must equal the same measurement on a fresh machine — a new thread's
//    first call builds one.
//  * One lowering per side: Lowering::lower_split yields the critical
//    prefix's lowering from the full trace's, and it must equal lowering
//    the prefix on its own, instruction for instruction.
//  * Each warm-up state replayed once: the steady replay resumes from the
//    cold replay, the critical replay from a checkpoint the cold replay
//    saved after the critical prefix, and conflict-free warm-up passes
//    2..N collapse to their last scrub.  The memory state a measured pass
//    starts from, and every result, must equal replaying every pass.
#include <gtest/gtest.h>

#include <thread>
#include <utility>

#include "code/classifier.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
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

void expect_same_profile(const std::shared_ptr<const sim::MissProfile>& a,
                         const std::shared_ptr<const sim::MissProfile>& b) {
  ASSERT_EQ(a == nullptr, b == nullptr);
  if (a == nullptr) return;
  expect_same_section(a->icache, b->icache);
  expect_same_section(a->dcache, b->dcache);
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

/// lower_split(trace, split) against lowering the whole trace and the first
/// `split` events each on its own.  Returns whether the prefix was shared
/// with the whole trace's lowering.
bool expect_split_matches(const code::Lowering& lower,
                          const code::PathTrace& trace, std::size_t split) {
  const code::SplitLowering s = lower.lower_split(trace, split);
  const sim::MachineTrace whole = lower.lower(trace);
  const sim::MachineTrace own = lower.lower(first_events(trace, split));
  EXPECT_EQ(s.trace.size(), whole.size());
  for (std::size_t i = 0; i < std::min(s.trace.size(), whole.size()); ++i) {
    expect_same_instr(s.trace[i], whole[i]);
  }
  const std::span<const sim::MachineInstr> prefix = s.prefix();
  EXPECT_EQ(s.prefix_size, own.size());
  EXPECT_EQ(prefix.size(), own.size());
  const bool shared = s.separate_prefix.empty();
  if (prefix.size() != own.size()) return shared;
  for (std::size_t i = 0; i + 1 < own.size(); ++i) {
    SCOPED_TRACE("instruction " + std::to_string(i));
    expect_same_instr(prefix[i], own[i]);
  }
  if (!own.empty()) {
    const sim::MachineInstr& last = prefix.back();
    expect_same_instr(s.prefix_last, own.back());
    // The memory replay reads the full trace's copy of the final
    // instruction: same PC, and a memory operation only if unchanged.
    EXPECT_EQ(last.pc, own.back().pc);
    EXPECT_EQ(sim::is_memory(last.cls), sim::is_memory(own.back().cls));
    if (sim::is_memory(last.cls)) expect_same_instr(last, own.back());
  }
  return shared;
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
        EXPECT_TRUE(expect_split_matches(lower, *spec.trace, spec.split));

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

TEST(SplitLowering, BurstCostSlowTraceWithMarkers) {
  // measure_burst_costs' slow activation: the server trace bracketed by
  // slow-path markers, split one event later, under the fast trace's image.
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
  EXPECT_TRUE(expect_split_matches(lower, slow, spec.split + 1));
  expect_split_matches(lower, slow, slow.events.size());
  expect_split_matches(lower, slow, slow.events.size() + 5);
}

TEST(SplitLowering, EverySplitOfTheClassifierTraces) {
  // measure_classifier_costs' activations replay with split 0; checking
  // every split of them also reaches a data reference inside an open
  // block, where the prefix is lowered on its own.
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

  std::size_t separate = 0;
  for (const code::PathTrace* t : {&t_hit, &t_miss}) {
    const code::CodeImage image = harness::build_image(
        net::StackKind::kTcpIp, cfg, reg, *t, harness::MachineParams{});
    const code::Lowering lower(reg, image, cfg);
    for (std::size_t split = 0; split <= t->events.size(); ++split) {
      SCOPED_TRACE("split " + std::to_string(split));
      if (!expect_split_matches(lower, *t, split)) ++separate;
    }
  }
  EXPECT_GT(separate, 0u);
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

void expect_same_state(const sim::MemorySystem::State& a,
                       const sim::MemorySystem::State& b) {
  EXPECT_TRUE(a.icache == b.icache) << "i-cache lines or ever-seen set";
  EXPECT_TRUE(a.dcache == b.dcache) << "d-cache lines or ever-seen set";
  EXPECT_TRUE(a.bcache == b.bcache) << "b-cache lines or ever-seen set";
  EXPECT_EQ(a.last_imiss_block, b.last_imiss_block);
  EXPECT_EQ(a.wbuf, b.wbuf);
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

        for (std::uint64_t seed : {0u, 1u, 9001u}) {
          SCOPED_TRACE(side + " seed offset " + std::to_string(seed));
          const sim::Machine::Options steady = steady_of(spec.params, seed);

          // The state each measured pass starts from.
          m.run(full, prepared.full_timing, sim::Machine::Options{});
          m.warm_up_after_cold(full, steady);
          const sim::MemorySystem::State steady_state = m.mem().state();
          EXPECT_FALSE(steady_state.bcache.ever_seen.empty());
          warm_in_full(m, full, steady);
          expect_same_state(steady_state, m.mem().state());

          m.warm_up(critical, steady);
          const sim::MemorySystem::State critical_state = m.mem().state();
          warm_in_full(m, critical, steady);
          expect_same_state(critical_state, m.mem().state());

          // Every result and both miss profiles.
          const SideMeasurement got = harness::replay_side(prepared, seed);
          sim::MissProfiler prof(*prepared.owners);
          sim::Machine::Options cold;
          cold.miss_profiler = &prof;
          expect_same_run(got.cold, m.run(full, prepared.full_timing, cold));
          expect_same_profile(
              got.miss_cold,
              std::make_shared<const sim::MissProfile>(prof.snapshot()));
          sim::Machine::Options profiled = steady;
          profiled.miss_profiler = &prof;
          expect_same_run(got.steady,
                          run_in_full(m, full, prepared.full_timing, profiled));
          expect_same_profile(
              got.miss_steady,
              std::make_shared<const sim::MissProfile>(prof.snapshot()));
          expect_same_run(got.critical, run_in_full(m, critical,
                                                    prepared.critical_timing,
                                                    steady));
        }
      }
    }
  }
  EXPECT_EQ(collapsed, 20u);
  EXPECT_EQ(fallback, 4u);
}

// Every paper side's critical prefix is the start of its full trace, so
// the critical replay resumes from the cold replay's checkpoint.
TEST(WarmUpOnce, CriticalResumesFromTheColdCheckpoint) {
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
        ASSERT_TRUE(prepared.lowered.separate_prefix.empty()) << side;
        const sim::MachineTrace& full = prepared.lowered.trace;
        const std::span<const sim::MachineInstr> critical =
            prepared.lowered.prefix();
        sim::Machine m(spec.params.mem, spec.params.cpu);

        for (std::uint64_t seed : {0u, 1u, 9001u}) {
          SCOPED_TRACE(side + " seed offset " + std::to_string(seed));
          const sim::Machine::Options steady = steady_of(spec.params, seed);

          // The state the measured critical pass starts from, resumed as
          // replay_side resumes it, against a fresh cold prefix replay's.
          m.run_cold(full, prepared.full_timing, sim::Machine::Options{},
                     critical.size());
          m.run_after_cold(full, prepared.full_timing, steady);
          m.warm_up_from_checkpoint(critical, steady);
          sim::Machine fresh(spec.params.mem, spec.params.cpu);
          fresh.warm_up(critical, steady);
          expect_same_state(m.mem().state(), fresh.mem().state());

          // The cold replay that saved the checkpoint, its miss profile
          // and the critical replay.
          const SideMeasurement got = harness::replay_side(prepared, seed);
          sim::MissProfiler prof(*prepared.owners);
          sim::Machine::Options cold;
          cold.miss_profiler = &prof;
          expect_same_run(got.cold,
                          fresh.run(full, prepared.full_timing, cold));
          expect_same_profile(
              got.miss_cold,
              std::make_shared<const sim::MissProfile>(prof.snapshot()));
          expect_same_run(
              got.critical,
              fresh.run(critical, prepared.critical_timing, steady));
        }
      }
    }
  }
}

// A split on a data reference inside an open block lowers the prefix on
// its own; that side has no checkpoint to resume from, and its critical
// replay keeps the cold prefix pass.
TEST(WarmUpOnce, SeparatePrefixKeepsItsColdPass) {
  const StackConfig cfg = StackConfig::All();
  code::CodeRegistry reg;
  proto::register_common_code(reg, cfg);
  proto::register_tcpip_code(reg, cfg);
  proto::register_classifier_code(reg, cfg);
  code::FlowLookupResult miss;
  miss.scanned = true;
  miss.scan_matched = true;
  miss.rules_examined = 3;
  code::Recorder rec;
  code::PathTrace trace;
  rec.enable(&trace);
  proto::trace_classification(rec, reg, miss, {},
                              proto::flow_cache_entry_addr(0));
  rec.disable();

  MeasureSpec spec;
  spec.kind = net::StackKind::kTcpIp;
  spec.cfg = cfg;
  spec.registry = &reg;
  spec.trace = &trace;
  std::size_t separate = 0;
  for (spec.split = 0; spec.split <= trace.events.size(); ++spec.split) {
    const harness::PreparedSide prepared = harness::prepare_side(spec);
    if (prepared.lowered.separate_prefix.empty()) continue;
    ++separate;
    SCOPED_TRACE("split " + std::to_string(spec.split));
    const sim::MachineTrace& own = prepared.lowered.separate_prefix;
    sim::Machine fresh(spec.params.mem, spec.params.cpu);
    const SideMeasurement got = harness::replay_side(prepared, 3);
    expect_same_run(got.cold, fresh.run(prepared.lowered.trace,
                                        sim::Machine::Options{}));
    expect_same_run(got.critical, fresh.run(own, steady_of(spec.params, 3)));
  }
  EXPECT_GT(separate, 0u);
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
