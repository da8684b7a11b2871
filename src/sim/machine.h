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

/// Machine::run_side()'s three replays of one side.
struct SideRuns {
  RunResult cold;      ///< Table 6: the whole trace from cold caches
  RunResult steady;    ///< Table 7: the whole trace in steady state
  RunResult critical;  ///< the prefix in steady state
  /// Miss attribution of the cold and steady replays; set when the steady
  /// options carry a profiler.
  std::optional<MissProfile> cold_profile;
  std::optional<MissProfile> steady_profile;
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
    /// Rules skip passes whose outcome the machine already knows; none
    /// changes a result.  run_side() takes its cold replay as pass 1 of the
    /// steady replay, and the same replay at the prefix mark, drained, as
    /// pass 1 of the critical replay: each is the state that pass leaves
    /// before its scrub, on any layout.  Every later pass repeats pass 1
    /// when pass 1 started cold (`cold_start`), the b-cache made no
    /// eviction since that cold restart, draining the buffered writes
    /// included, and the i-cache scrub is total (scrub_fraction >= 1):
    /// every allocating b-cache access hits, so the b-cache, its dirty bits
    /// and every ever-seen set are fixed; the d-cache allocates on loads
    /// only, so each set the trace loads ends holding its last loaded block
    /// and every other set stays invalid; the i-cache restarts empty, so
    /// its misses (and the sequential-fill block) repeat; the write buffer
    /// restarts empty and is drained.  Then passes 2..N are skipped and
    /// only the last scrub (seed + N-1) runs, and run_side() prices its
    /// measured passes from its cold replay's miss log instead of replaying
    /// them (see MemorySystem::price_logged_pass).  Otherwise, as for BAD's
    /// conflicting layout, every pass is replayed.
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

  /// One side's three replays (see DESIGN.md §5): a cold replay of
  /// `trace` (Table 6), logging its misses; run(trace, timing, steady),
  /// taking the cold replay as its warm-up pass 1; and run(prefix,
  /// prefix_timing, o) for the prefix, with o = steady minus the profiler.
  /// When the passes after pass 1 repeat it (see warmup_passes), the
  /// steady measured pass is priced from the cold replay's miss log, and
  /// the critical one from the log up to the prefix, at the moment the
  /// cold replay reaches the prefix's end; otherwise they are replayed,
  /// the critical one from a cold restart.  Each result equals its run()
  /// on a fresh machine (tested); with no warm-up passes the steady and
  /// critical replays are cold replays themselves.  The state the call
  /// leaves is unspecified: every replay starts with a cold restart.
  /// steady.miss_profiler, when set, profiles the cold and steady replays.
  /// Throws std::invalid_argument when `prefix_size` exceeds the trace,
  /// either timing does not cover its span, or `steady` does not start
  /// cold.
  SideRuns run_side(std::span<const MachineInstr> trace,
                    const CpuStats& timing, std::size_t prefix_size,
                    const CpuStats& prefix_timing, const Options& steady);

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

  MemorySystem& mem() noexcept { return mem_; }
  const Cpu& cpu() const noexcept { return cpu_; }

 private:
  /// Warm-up passes `done`..warmup_passes-1 over `warm` (pass 0 is done
  /// when it is the cold replay), collapsed as warmup_passes describes.
  void replay_warm_up(std::span<const MachineInstr> warm, const Options& opts,
                      std::uint32_t done);
  /// Whether the warm-up passes after pass 1 repeat it, judged on the
  /// state pass 1 left, drained or not (see warmup_passes).
  bool passes_repeat(const Options& opts) const;
  /// The measured pass when passes_repeat(opts): priced from log_ up to
  /// mark_, which pass 1 logged; changes nothing but opts.miss_profiler.
  RunResult price_pass(const CpuStats& timing, const Options& opts) const;
  /// Attach opts.miss_profiler, reset, for the measured replays.
  void attach_profiler(const Options& opts);
  /// The measured pass after a warm-up: attach the profiler, measure
  /// `trace`, detach.
  RunResult measure_once(std::span<const MachineInstr> trace,
                         const CpuStats& timing, const Options& opts);
  /// One measured replay of `trace`, priced with its issue `timing`.
  RunResult measure(std::span<const MachineInstr> trace,
                    const CpuStats& timing, const Options& opts);
  void replay_memory(std::span<const MachineInstr> trace);

  MemorySystem mem_;
  Cpu cpu_;
  /// run_side()'s cold replay's miss log and where the prefix, then the
  /// trace, ends in it; their buffers are reused.
  MemorySystem::MissLog log_;
  MemorySystem::MissLog::Mark mark_;
};

}  // namespace l96::sim
