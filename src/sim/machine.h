// Machine: replays a machine-level trace through the CPU issue model and the
// DEC 3000/600 memory hierarchy, producing the metrics the paper reports —
// processing time, CPI, iCPI, mCPI and per-cache (Miss, Acc, Repl) counts.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/cpu.h"
#include "sim/instr.h"
#include "sim/memsys.h"

namespace l96::sim {

/// Everything Tables 6 and 7 need for one configuration.
struct RunResult {
  std::uint64_t instructions = 0;
  std::uint64_t issue_cycles = 0;   ///< perfect-memory cycles
  std::uint64_t stall_cycles = 0;   ///< memory stall cycles
  std::uint64_t taken_branches = 0;

  CacheStats icache;
  CacheStats dcache_combined;  ///< d-cache reads + write-buffer writes, as in
                               ///< Table 6's combined d-cache/wr-buffer column
  CacheStats dcache_reads;     ///< d-cache read path alone (no write buffer);
                               ///< what MissProfiler d-cache totals conserve to
  CacheStats bcache;
  MemStallStats stalls;
  BcacheTraffic traffic;

  std::uint64_t cycles() const noexcept { return issue_cycles + stall_cycles; }
  double cpi() const noexcept {
    return instructions ? static_cast<double>(cycles()) /
                              static_cast<double>(instructions)
                        : 0.0;
  }
  double icpi() const noexcept {
    return instructions ? static_cast<double>(issue_cycles) /
                              static_cast<double>(instructions)
                        : 0.0;
  }
  double mcpi() const noexcept { return cpi() - icpi(); }
  /// Processing time in microseconds at the given clock.
  double processing_us(std::uint64_t hz = 175'000'000) const noexcept {
    return static_cast<double>(cycles()) * 1e6 / static_cast<double>(hz);
  }
};

class Machine {
 public:
  struct Options {
    /// Start from cold caches (Table 6 methodology).
    bool cold_start = true;
    /// Drain the write buffer when the trace ends.
    bool drain_at_end = true;
    /// Number of warm-up replays before the measured replay.  Warm-up
    /// populates the b-cache (the whole kernel fits in it) and the primary
    /// caches; combined with `scrub_fraction` this models the steady state
    /// of repeated path invocations with untraced code in between.  Pass p
    /// replays the trace, drains the write buffer and scrubs with seed
    /// scrub_seed + p.
    ///
    /// Three rules skip passes that rebuild a state the machine already
    /// holds; none changes a result.  run_after_cold() takes the cold
    /// replay just made as pass 1, on any layout.  run_from_checkpoint()
    /// takes pass 1 of a prefix of that replay's trace from the checkpoint
    /// run_cold() saved after the prefix's last instruction: restored and
    /// drained, it is the state the prefix's own cold pass leaves before
    /// its scrub, on any layout.  Passes 2..N are skipped,
    /// and only the last scrub (seed + N-1) runs, when pass 1 started cold
    /// (`cold_start`), the b-cache made no eviction since that cold restart
    /// and the i-cache scrub is total (scrub_fraction >= 1).  Each later
    /// pass would rebuild exactly the post-pass-1 state: every allocating
    /// b-cache access hits, so the b-cache, its dirty bits and every
    /// ever-seen set are fixed; the d-cache allocates on loads only, so
    /// each set the trace loads ends holding its last loaded block and
    /// every other set stays invalid; the i-cache restarts empty, so its
    /// misses (and the sequential-fill block) repeat; the write buffer is
    /// drained.  Otherwise, as for BAD's conflicting layout, every pass is
    /// replayed.
    std::uint32_t warmup_passes = 0;
    /// Fraction of primary-cache lines evicted by untraced code between
    /// passes (interrupt handling, context switch, idle thread).  The
    /// untraced code is instruction-heavy, so the d-cache fraction is
    /// separate (and typically smaller).
    double scrub_fraction = 0.0;
    double scrub_fraction_d = -1.0;  ///< < 0: use scrub_fraction
    std::uint64_t scrub_seed = 0x9E3779B97F4A7C15ULL;
    /// Optional attribution sink for the measured replay.  Warm-up passes
    /// are not profiled; the profiler is reset at measurement start, so its
    /// per-owner counts conserve exactly to the returned cache statistics.
    /// Not owned; must outlive the run() call.
    MissProfiler* miss_profiler = nullptr;
  };

  Machine() = default;
  Machine(const MemorySystem::Config& mem_cfg, const Cpu::Config& cpu_cfg)
      : mem_(mem_cfg), cpu_(cpu_cfg) {}

  /// Replay `trace` and return the measured metrics.
  RunResult run(const MachineTrace& trace, const Options& opts);
  RunResult run(const MachineTrace& trace) { return run(trace, Options{}); }

  /// As run(), with the trace's issue timing supplied, so a caller that
  /// replays one trace several times times it once.  `timing` is
  /// cpu().time_trace(trace), or for a prefix whose final instruction a
  /// longer lowering rewrote, the timing of the prefix as its own lowering
  /// leaves it (the memory replay cannot tell the two apart: the rewrite
  /// keeps the PC and never touches a memory instruction).  Throws
  /// std::invalid_argument when timing.instructions != trace.size().
  RunResult run(std::span<const MachineInstr> trace, const CpuStats& timing,
                const Options& opts);

  /// As run(trace, timing, opts), continuing from the cold replay the
  /// previous call made: run(trace, timing, o) with o.cold_start, no
  /// warm-up passes and o.drain_at_end leaves exactly the state opts's
  /// warm-up pass 1 leaves before its scrub, so that pass is not replayed.
  /// Equals run(trace, timing, opts) (tested).  Throws std::logic_error
  /// when the previous call was not such a replay of this very span, and
  /// std::invalid_argument when opts does not start cold or `timing` does
  /// not cover the trace.
  RunResult run_after_cold(std::span<const MachineInstr> trace,
                           const CpuStats& timing, const Options& opts);

  /// As run(trace, timing, opts) for a cold replay (opts.cold_start, no
  /// warm-up passes), saving a checkpoint of the memory system after the
  /// trace's first `checkpoint_at` instructions: the state, statistics
  /// included, a cold replay of that prefix reaches before its drain.  The
  /// checkpoint's buffers belong to the machine and are reused.  Throws
  /// std::invalid_argument when opts is not a cold replay or
  /// `checkpoint_at` exceeds the trace.
  RunResult run_cold(std::span<const MachineInstr> trace,
                     const CpuStats& timing, const Options& opts,
                     std::size_t checkpoint_at);

  /// As run(prefix, timing, opts), resuming from the checkpoint run_cold()
  /// saved: restoring it and draining the write buffer leaves exactly the
  /// state opts's warm-up pass 1 leaves before its scrub, so that pass is
  /// not replayed (with no warm-up passes the measured pass is the cold
  /// replay itself, and is replayed).  Equals run(prefix, timing, opts)
  /// (tested).  Throws std::logic_error unless `prefix` is the very span
  /// the last run_cold() checkpointed, with nothing but run_after_cold()
  /// and run_from_checkpoint() called since (run(), run_stream() and
  /// warm_up() drop the checkpoint), and std::invalid_argument as
  /// run_after_cold() does.
  RunResult run_from_checkpoint(std::span<const MachineInstr> prefix,
                                const CpuStats& timing, const Options& opts);

  /// Replay a *sequence* of activations under one continuously-evolving
  /// cache state and return one RunResult per position.  Warm-up (passes +
  /// scrub, from `opts`) replays `warmup_trace` (default: seq.front()) and
  /// runs once, before position 0 — so position 0 reproduces run() exactly
  /// when the sequence is {&trace} — and NO scrub runs between positions:
  /// later activations see whatever the earlier ones left resident (the
  /// back-to-back burst the steady-state single-activation model cannot
  /// express).  Statistics are reset between positions, so each RunResult
  /// covers exactly its own activation.  An attached miss profiler spans
  /// the whole stream (advance_position() is called at each boundary); its
  /// per-position rows conserve to the returned per-position stats.
  std::vector<RunResult> run_stream(
      const std::vector<const MachineTrace*>& seq, const Options& opts,
      const MachineTrace* warmup_trace = nullptr);

  /// The state the measured replay of run(warm, opts) starts from: a cold
  /// restart when opts.cold_start, then the warm-up passes over `warm`.
  /// Statistics are zeroed after a warm-up; no profiler is attached.
  void warm_up(std::span<const MachineInstr> warm, const Options& opts);
  /// The same state, reached as run_after_cold(warm, ...) reaches it: from
  /// the cold replay of `warm` the previous call made.  Throws as
  /// run_after_cold() does.
  void warm_up_after_cold(std::span<const MachineInstr> warm,
                          const Options& opts);
  /// The same state, reached as run_from_checkpoint(prefix, ...) reaches
  /// it.  Throws as run_from_checkpoint() does.
  void warm_up_from_checkpoint(std::span<const MachineInstr> prefix,
                               const Options& opts);

  /// Mutating the memory system between run() and run_after_cold() breaks
  /// the latter's precondition; nothing checks it.  The checkpoint is a
  /// copy, so run_from_checkpoint() does not depend on the current state.
  MemorySystem& mem() noexcept { return mem_; }
  const Cpu& cpu() const noexcept { return cpu_; }

 private:
  /// warm_up() without dropping the checkpoint.
  void restart(std::span<const MachineInstr> warm, const Options& opts);
  /// Warm-up passes `done`..warmup_passes-1 over `warm` (pass 0 is done
  /// when it is the cold replay), collapsed as warmup_passes describes.
  void replay_warm_up(std::span<const MachineInstr> warm, const Options& opts,
                      std::uint32_t done);
  /// Attach opts.miss_profiler, reset, for the measured replays.
  void attach_profiler(const Options& opts);
  /// run()'s measured pass after its warm-up: attach the profiler, measure
  /// `trace`, detach; remember `trace` when the whole run was a cold replay.
  /// Saves the checkpoint after `checkpoint_at` instructions when that is
  /// within the trace.
  RunResult measure_once(std::span<const MachineInstr> trace,
                         const CpuStats& timing, const Options& opts,
                         std::size_t checkpoint_at = SIZE_MAX);
  /// One measured replay of `trace`, priced with its issue `timing`.
  RunResult measure(std::span<const MachineInstr> trace,
                    const CpuStats& timing, const Options& opts);
  void replay_memory(std::span<const MachineInstr> trace);
  RunResult collect(const CpuStats& timing) const;

  MemorySystem mem_;
  Cpu cpu_;
  /// The trace whose cold replay produced the current state, if the last
  /// call was one; run_after_cold() continues only from that.  Compared by
  /// address and length, never read.
  std::span<const MachineInstr> cold_replay_;
  /// The prefix run_cold() saved `checkpoint_` after, while it may be
  /// restored; compared by address and length, never read.
  std::optional<std::span<const MachineInstr>> checkpointed_;
  MemorySystem::Checkpoint checkpoint_;
};

}  // namespace l96::sim
