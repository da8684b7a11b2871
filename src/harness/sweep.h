// SweepRunner: run many stack configurations over shared captured traces.
//
// The paper's methodology is "capture one path trace, replay it under many
// code layouts" — so a table sweep is one expensive functional capture per
// *functional* configuration plus many independent lower+simulate jobs.
// The runner exploits exactly that structure:
//
//  * Trace-capture cache: a capture is keyed by everything that changes the
//    recorded PathTrace or the registry contents — the stack kind, the
//    Section-2 toggles (they resize blocks and alter functional behaviour),
//    path_inlining (classifier slow-path markers), and the warm-up
//    roundtrip count.  Layout-only fields (outlining, cloning, layout
//    strategy, specialization flags) do NOT key the cache: STD/OUT/CLO/BAD
//    replay one shared immutable trace.  A capture is a captured
//    Experiment, so its World (and the per-host registries lowering reads)
//    stays alive with it.
//
//  * Worker pool: lowering and simulation are pure functions of
//    (registry, trace, config, params) — see measure_side() — so jobs run
//    concurrently on the shared run_indexed_jobs pool over the captures.
//    Each job prepares each side of the capture's specs once, with the
//    job's cfg, params and profiling swapped in, and replays it for both
//    measure_config()'s result and sample_te()'s samples, so the numbers
//    are byte-identical to the serial Experiment path; results are stored
//    by job index, keeping the order deterministic.
//
//  * Structured metrics: sweep_json() is the finished sweep as one JSON
//    document with cycles, CPI, iCPI, mCPI, per-cache miss breakdowns and
//    per-stage wall clock, so the perf trajectory is machine-readable
//    instead of stdout-only; bench_paper writes it to bench/out/paper.json
//    with write_json_file().  Schema: DESIGN.md §3.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/json.h"

namespace l96::harness {

/// One row of a sweep: a full per-side configuration plus machine params.
struct SweepJob {
  std::string label;  ///< row label (defaults to client config name)
  net::StackKind kind = net::StackKind::kTcpIp;
  code::StackConfig client;
  code::StackConfig server;
  MachineParams params = MachineParams::defaults();
  /// When > 0, also collect this many end-to-end samples with the varied
  /// scrub seeds Experiment::te_samples uses (Table 4's mean +/- stddev).
  std::uint64_t te_sample_count = 0;
  /// Attach a miss-attribution profiler to both sides' replays and emit an
  /// `l96.missmap.v1` section on the row.  Deliberately NOT part of the
  /// trace-capture key: profiling never changes the captured trace.
  bool profile_misses = false;
};

/// Everything measured for one job.
struct SweepOutcome {
  std::string label;
  ConfigResult result;
  std::vector<double> te_samples;  ///< empty unless te_sample_count > 0
  bool trace_reused = false;  ///< capture came from the cache, not a new world
  double capture_wall_ms = 0;  ///< wall clock of this job's capture (0 if reused)
  double measure_wall_ms = 0;  ///< wall clock of lowering + simulation

  /// Attach a schema-versioned structured section, emitted at the row level
  /// under `key`.  The value must be a JSON object carrying a string
  /// "schema" field (start from json_section()); throws
  /// std::invalid_argument otherwise.  Keys keep insertion order; setting a
  /// key twice overwrites in place.
  void extra_json(const std::string& key, Json section);

  /// The attached sections as an ordered JSON object (empty object when
  /// none were attached).
  const Json& sections() const noexcept { return sections_; }

 private:
  Json sections_ = Json::object();
};

/// Captures one Experiment per functional configuration; the Experiment
/// owns the World, so the traces' registries stay valid.
class TraceCaptureCache {
 public:
  struct Entry {
    std::unique_ptr<Experiment> experiment;  ///< capture() has run
    double capture_wall_ms = 0;
  };

  /// Return the entry for the functional configuration of (kind, ccfg,
  /// scfg, params.warmup_roundtrips), capturing it first if absent.
  /// `was_cached` reports whether a capture was skipped.
  const Entry& get(net::StackKind kind, const code::StackConfig& ccfg,
                   const code::StackConfig& scfg, const MachineParams& params,
                   bool* was_cached = nullptr);

  std::size_t captures_performed() const noexcept { return entries_.size(); }

 private:
  std::map<std::string, Entry> entries_;
};

class SweepRunner {
 public:
  /// `threads` is resolved by resolve_workers(): 0 picks the hardware
  /// concurrency, floored at 2 so sweeps always exercise the concurrent
  /// path.
  explicit SweepRunner(unsigned threads = 0);

  /// Capture (serially, once per functional config), then lower + simulate
  /// every job on the worker pool.  Results are ordered by job index.
  std::vector<SweepOutcome> run(const std::vector<SweepJob>& jobs);

  unsigned thread_count() const noexcept { return threads_; }
  /// Distinct functional captures performed so far (cache size).
  std::size_t captures_performed() const noexcept {
    return cache_.captures_performed();
  }
  /// Distinct worker threads that measured at least one job in the last
  /// run() call.
  std::size_t workers_used() const noexcept { return workers_used_; }

  /// The capture `job` replays, from the cache (captured first if no run()
  /// has covered its functional configuration), under `job`'s configs and
  /// params: for analyses of the trace itself, such as Table 3's
  /// instruction segments.  The result shares the cached world, so it
  /// stays valid after the runner is gone.
  Experiment capture(const SweepJob& job);

 private:
  unsigned threads_;
  TraceCaptureCache cache_;
  std::size_t workers_used_ = 0;
};

/// A finished sweep as a JSON document (schema "l96.sweep.v1").
Json sweep_json(const std::string& bench, const SweepRunner& runner,
                const std::vector<SweepJob>& jobs,
                const std::vector<SweepOutcome>& outcomes);

/// Serialize sweep_json() to `os`, newline-terminated.
void write_sweep_json(std::ostream& os, const std::string& bench,
                      const SweepRunner& runner,
                      const std::vector<SweepJob>& jobs,
                      const std::vector<SweepOutcome>& outcomes);

}  // namespace l96::harness
