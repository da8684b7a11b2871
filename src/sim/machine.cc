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

  // Cold replay (Table 6).  Splitting it at the checkpoint only re-looks-up
  // the block the split falls in, which is resident: the same hit either
  // way.
  Options cold;
  cold.miss_profiler = profiler;
  warm_up(trace, cold);
  attach_profiler(cold);
  replay_memory(prefix);
  mem_.save(checkpoint_);
  out.cold = measure(trace.subspan(prefix_size), timing, cold);
  mem_.attach_miss_profiler(nullptr);
  if (profiler != nullptr) out.cold_profile = profiler->snapshot();

  // Steady replay (Table 7): the cold replay, drained, is its pass 1.
  if (steady.warmup_passes == 0) {
    warm_up(trace, steady);
  } else {
    replay_warm_up(trace, steady, 1);
  }
  out.steady = measure_once(trace, timing, steady);
  if (profiler != nullptr) out.steady_profile = profiler->snapshot();

  // Critical replay: the checkpoint, drained, is the prefix's pass 1.
  Options critical = steady;
  critical.miss_profiler = nullptr;
  if (critical.warmup_passes == 0) {
    warm_up(prefix, critical);
  } else {
    mem_.restore(checkpoint_);
    mem_.drain_writes();
    replay_warm_up(prefix, critical, 1);
  }
  out.critical = measure_once(prefix, prefix_timing, critical);
  return out;
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
  // A reused machine keeps no profiler from an earlier, interrupted replay.
  mem_.attach_miss_profiler(nullptr);

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
  const double d =
      opts.scrub_fraction_d < 0.0 ? opts.scrub_fraction : opts.scrub_fraction_d;
  // Passes 2..N rebuild the post-pass-1 state when pass 1 started cold, the
  // b-cache kept every block it filled and the i-cache restarts empty (the
  // argument is at Options::warmup_passes); only the last scrub is left.
  // The memory system never flushes or scrubs the b-cache, so its
  // eviction count alone tells whether it kept every block.
  const bool passes_repeat = opts.cold_start && opts.scrub_fraction >= 1.0;
  for (std::uint32_t p = 0; p < opts.warmup_passes; ++p) {
    if (p >= done) {
      replay_memory(warm);
      mem_.drain_writes();
    }
    if (p == 0 && passes_repeat && mem_.bcache().evictions_since_cold() == 0) {
      p = opts.warmup_passes - 1;
    }
    if (scrub) mem_.scrub_primary(opts.scrub_fraction, d, opts.scrub_seed + p);
  }
  if (opts.warmup_passes > 0) mem_.reset_stats();
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
  return collect(timing);
}

RunResult Machine::collect(const CpuStats& timing) const {
  RunResult r;
  r.instructions = timing.instructions;
  r.issue_cycles = timing.issue_cycles;
  r.taken_branches = timing.taken_branches;
  r.stalls = mem_.stalls();
  r.traffic = mem_.bcache_traffic();
  r.stall_cycles = r.stalls.total();
  r.icache = mem_.icache().stats();
  r.bcache = mem_.bcache().stats();

  // Combined d-cache/write-buffer column (Table 6): reads go through the
  // d-cache, writes through the write buffer.  A merged write counts as a
  // hit; a write that allocated an entry (and therefore eventually writes a
  // block to the b-cache) counts as a miss.
  const CacheStats& d = mem_.dcache().stats();
  const WriteBuffer& w = mem_.wbuf();
  r.dcache_reads = d;
  r.dcache_combined.accesses = d.accesses + w.stores();
  r.dcache_combined.misses = d.misses + w.allocations();
  r.dcache_combined.repl_misses = d.repl_misses;
  return r;
}

}  // namespace l96::sim
