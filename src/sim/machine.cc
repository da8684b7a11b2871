#include "sim/machine.h"

namespace l96::sim {

void Machine::replay_memory(const MachineTrace& trace) {
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
  return run_stream({&trace}, opts).front();
}

std::vector<RunResult> Machine::run_stream(
    const std::vector<const MachineTrace*>& seq, const Options& opts,
    const MachineTrace* warmup_trace) {
  std::vector<RunResult> out;
  if (seq.empty()) return out;
  const MachineTrace& warm =
      warmup_trace != nullptr ? *warmup_trace : *seq.front();

  // Cold replay (Table 6): full cold restart, every first touch is a cold
  // miss.  Steady replay (Table 7): warm-up passes below, then reset_stats()
  // keeps residency + ever-seen history so measured misses on warmed blocks
  // classify as replacement misses.
  if (opts.cold_start) mem_.reset_cold();

  for (std::uint32_t p = 0; p < opts.warmup_passes; ++p) {
    replay_memory(warm);
    mem_.drain_writes();
    if (opts.scrub_fraction > 0.0 || opts.scrub_fraction_d > 0.0) {
      const double d = opts.scrub_fraction_d < 0.0 ? opts.scrub_fraction
                                                   : opts.scrub_fraction_d;
      mem_.scrub_primary(opts.scrub_fraction, d, opts.scrub_seed + p);
    }
  }
  if (opts.warmup_passes > 0) mem_.reset_stats();

  // Attribution covers exactly the measured stream: attach after warm-up,
  // reset so the per-owner sums equal the post-reset aggregate stats.
  if (opts.miss_profiler != nullptr) {
    opts.miss_profiler->reset();
    mem_.attach_miss_profiler(opts.miss_profiler);
  }
  out.reserve(seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i > 0) {
      // No scrub between positions: within a burst the activations run
      // back to back, so position i inherits position i-1's residue.
      mem_.reset_stats();
      if (opts.miss_profiler != nullptr) opts.miss_profiler->advance_position();
    }
    replay_memory(*seq[i]);
    if (opts.drain_at_end) mem_.drain_writes();
    out.push_back(collect(*seq[i]));
  }
  if (opts.miss_profiler != nullptr) mem_.attach_miss_profiler(nullptr);
  return out;
}

RunResult Machine::collect(const MachineTrace& trace) {
  const CpuStats cpu_stats = cpu_.time_trace(trace);

  RunResult r;
  r.instructions = cpu_stats.instructions;
  r.issue_cycles = cpu_stats.issue_cycles;
  r.taken_branches = cpu_stats.taken_branches;
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
