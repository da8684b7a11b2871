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
  EXPECT_EQ(a.owners.size(), b.owners.size());
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
        sim::Machine::Options steady;
        steady.warmup_passes = spec.params.warmup_passes;
        steady.scrub_fraction = spec.params.scrub_fraction;
        steady.scrub_fraction_d = spec.params.scrub_fraction_d;
        steady.scrub_seed = spec.params.scrub_seed + spec.seed_offset;
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

}  // namespace
}  // namespace l96
