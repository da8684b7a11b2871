#include "sim/machine.h"

#include <stdexcept>
#include <string>

namespace l96::sim {

void Machine::replay_memory(std::span<const MachineInstr> trace) {
  // Only the first fetch of a run of PCs in one i-cache block needs a
  // lookup; the rest hit by construction (see MemorySystem::ifetch_resident).
  const Addr block_mask = ~Addr{mem_.config().block_bytes - 1};
  Addr open_block = 0;
  bool have_block = false;
  for (const MachineInstr& in : trace) {
    const Addr block = in.pc & block_mask;
    if (have_block && block == open_block) {
      mem_.ifetch_resident(in.pc);
    } else {
      mem_.ifetch(in.pc);
      open_block = block;
      have_block = true;
    }
    switch (in.cls) {
      case InstrClass::kLoad:
        mem_.load(in.ea);
        break;
      case InstrClass::kStore:
        mem_.store(in.ea);
        break;
      default:
        break;
    }
  }
}

RunResult Machine::run(const MachineTrace& trace, const Options& opts) {
  return run(trace, cpu_.time_trace(trace), opts);
}

namespace {

double dscrub_fraction(const Machine::Options& opts) {
  return opts.scrub_fraction_d < 0.0 ? opts.scrub_fraction
                                     : opts.scrub_fraction_d;
}

RunResult collect(const CpuStats& timing, const MemorySystem::Counts& c) {
  RunResult r;
  r.instructions = timing.instructions;
  r.issue_cycles = timing.issue_cycles;
  r.taken_branches = timing.taken_branches;
  r.stalls = c.stalls;
  r.traffic = c.traffic;
  r.stall_cycles = r.stalls.total();
  r.icache = c.icache;
  r.bcache = c.bcache;

  // Combined d-cache/write-buffer column (Table 6): reads go through the
  // d-cache, writes through the write buffer.  A merged write counts as a
  // hit; a write that allocated an entry (and therefore eventually writes a
  // block to the b-cache) counts as a miss.
  r.dcache_reads = c.dcache;
  r.dcache_combined.accesses = c.dcache.accesses + c.stores;
  r.dcache_combined.misses = c.dcache.misses + c.store_allocations;
  r.dcache_combined.repl_misses = c.dcache.repl_misses;
  return r;
}

void check_timing(std::span<const MachineInstr> trace, const CpuStats& timing,
                  const char* who) {
  if (timing.instructions != trace.size()) {
    throw std::invalid_argument(
        std::string(who) + ": timing covers " +
        std::to_string(timing.instructions) + " instructions, the trace has " +
        std::to_string(trace.size()));
  }
}

}  // namespace

RunResult Machine::run(std::span<const MachineInstr> trace,
                       const CpuStats& timing, const Options& opts) {
  check_timing(trace, timing, "Machine::run");
  warm_up(trace, opts);
  return measure_once(trace, timing, opts);
}

SideRuns Machine::run_side(std::span<const MachineInstr> trace,
                           const CpuStats& timing, std::size_t prefix_size,
                           const CpuStats& prefix_timing,
                           const Options& steady) {
  check_timing(trace, timing, "Machine::run_side");
  if (prefix_size > trace.size()) {
    throw std::invalid_argument(
        "Machine::run_side: prefix of " + std::to_string(prefix_size) +
        " instructions, the trace has " + std::to_string(trace.size()));
  }
  const std::span<const MachineInstr> prefix = trace.first(prefix_size);
  check_timing(prefix, prefix_timing, "Machine::run_side (prefix)");
  if (!steady.cold_start) {
    throw std::invalid_argument(
        "Machine::run_side: the steady replay must start cold");
  }
  SideRuns out;
  MissProfiler* const profiler = steady.miss_profiler;
  Options critical = steady;
  critical.miss_profiler = nullptr;

  // Cold replay (Table 6), logging its misses.  Splitting it at the prefix
  // mark only re-looks-up the block the split falls in, which is resident:
  // the same hit either way.
  Options cold;
  cold.miss_profiler = profiler;
  warm_up(trace, cold);
  attach_profiler(cold);
  log_.imisses.clear();
  log_.dmisses.clear();
  mem_.attach_miss_log(&log_);
  replay_memory(prefix);
  mem_.mark_log(mark_);
  // The state here, drained, is the critical replay's pass 1: price its
  // measured pass now when the passes after pass 1 repeat it.
  const bool critical_priced = passes_repeat(critical);
  if (critical_priced) out.critical = price_pass(prefix_timing, critical);
  replay_memory(trace.subspan(prefix_size));
  mem_.mark_log(mark_);
  mem_.attach_miss_log(nullptr);
  mem_.drain_writes();
  out.cold = collect(timing, mem_.counts());
  mem_.attach_miss_profiler(nullptr);
  if (profiler != nullptr) out.cold_profile = profiler->snapshot();

  // Steady replay (Table 7): the cold replay, drained, is its pass 1.
  if (steady.warmup_passes == 0) {
    out.steady = run(trace, timing, steady);
  } else if (passes_repeat(steady)) {
    out.steady = price_pass(timing, steady);
  } else {
    replay_warm_up(trace, steady, 1);
    out.steady = measure_once(trace, timing, steady);
  }
  if (profiler != nullptr) out.steady_profile = profiler->snapshot();

  // Critical replay, unless priced at the mark: from a cold restart.
  if (!critical_priced) out.critical = run(prefix, prefix_timing, critical);
  return out;
}

RunResult Machine::price_pass(const CpuStats& timing,
                              const Options& opts) const {
  // Every pass after pass 1 repeats it, the measured one included: price
  // that one from pass 1's log after the last scrub (seed + N-1).
  if (opts.miss_profiler != nullptr) opts.miss_profiler->reset();
  return collect(timing, mem_.price_logged_pass(
                             log_, mark_, dscrub_fraction(opts),
                             opts.scrub_seed + opts.warmup_passes - 1,
                             opts.drain_at_end, opts.miss_profiler));
}

std::vector<RunResult> Machine::run_stream(
    const std::vector<const MachineTrace*>& seq, const Options& opts,
    const MachineTrace* warmup_trace) {
  std::vector<RunResult> out;
  if (seq.empty()) return out;
  warm_up(warmup_trace != nullptr ? *warmup_trace : *seq.front(), opts);
  attach_profiler(opts);

  out.reserve(seq.size());
  // A burst repeats one trace, so a position times its trace only when it
  // differs from the previous position's.
  const MachineTrace* timed = nullptr;
  CpuStats timing;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i > 0) {
      // No scrub between positions: within a burst the activations run
      // back to back, so position i inherits position i-1's residue.
      mem_.reset_stats();
      if (opts.miss_profiler != nullptr) opts.miss_profiler->advance_position();
    }
    if (seq[i] != timed) {
      timed = seq[i];
      timing = cpu_.time_trace(*timed);
    }
    out.push_back(measure(*seq[i], timing, opts));
  }
  mem_.attach_miss_profiler(nullptr);
  return out;
}

void Machine::warm_up(std::span<const MachineInstr> warm,
                      const Options& opts) {
  // A reused machine keeps no profiler or miss log from an earlier,
  // interrupted replay.
  mem_.attach_miss_profiler(nullptr);
  mem_.attach_miss_log(nullptr);

  // Cold replay (Table 6): full cold restart, every first touch is a cold
  // miss.  Steady replay (Table 7): warm-up passes below, then reset_stats()
  // keeps residency + ever-seen history so measured misses on warmed blocks
  // classify as replacement misses.
  if (opts.cold_start) mem_.reset_cold();
  replay_warm_up(warm, opts, 0);
}

void Machine::replay_warm_up(std::span<const MachineInstr> warm,
                             const Options& opts, std::uint32_t done) {
  const bool scrub = opts.scrub_fraction > 0.0 || opts.scrub_fraction_d > 0.0;
  const double d = dscrub_fraction(opts);
  for (std::uint32_t p = 0; p < opts.warmup_passes; ++p) {
    if (p >= done) {
      replay_memory(warm);
      mem_.drain_writes();
    }
    if (p == 0 && passes_repeat(opts)) p = opts.warmup_passes - 1;
    if (scrub) mem_.scrub_primary(opts.scrub_fraction, d, opts.scrub_seed + p);
  }
  if (opts.warmup_passes > 0) mem_.reset_stats();
}

bool Machine::passes_repeat(const Options& opts) const {
  // Pass 1 started cold, the b-cache kept every block it filled and the
  // i-cache restarts empty: the argument is at Options::warmup_passes.
  // The memory system never flushes or scrubs the b-cache, so its
  // eviction count, with those the drain ending pass 1 would make, tells
  // whether it kept every block.
  return opts.warmup_passes > 0 && opts.cold_start &&
         opts.scrub_fraction >= 1.0 &&
         mem_.bcache().evictions_since_cold() == 0 &&
         !mem_.drain_would_evict();
}

void Machine::attach_profiler(const Options& opts) {
  // Attribution covers exactly the measured stream: attach after warm-up,
  // reset so the per-owner sums equal the post-reset aggregate stats.
  if (opts.miss_profiler != nullptr) {
    opts.miss_profiler->reset();
    mem_.attach_miss_profiler(opts.miss_profiler);
  }
}

RunResult Machine::measure_once(std::span<const MachineInstr> trace,
                                const CpuStats& timing, const Options& opts) {
  attach_profiler(opts);
  const RunResult r = measure(trace, timing, opts);
  mem_.attach_miss_profiler(nullptr);
  return r;
}

RunResult Machine::measure(std::span<const MachineInstr> trace,
                           const CpuStats& timing, const Options& opts) {
  replay_memory(trace);
  if (opts.drain_at_end) mem_.drain_writes();
  return collect(timing, mem_.counts());
}

}  // namespace l96::sim
