// Unified harness runner API: one spec shape, one entry point, one worker
// pool.
//
// Every run is described by a *RunSpec struct — a shared RunnerSpec
// (label, seed, workers, batch, machine params, output path: defined once,
// here) plus the family's rows — and executed by an overload of
//
//     Outcome run(const <Family>RunSpec& spec);
//
// which runs the rows on the shared deterministic worker pool
// (run_indexed_jobs), assembles the family's schema-versioned JSON
// section, optionally writes it to spec.common.out_path, and returns the
// typed results.
//
// Determinism contract (all families): results are stored by row index and
// are byte-identical for any worker count; worker threads only decide who
// executes which independent simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/fleet.h"
#include "harness/json.h"
#include "harness/lb.h"
#include "harness/recovery.h"
#include "harness/shard.h"
#include "harness/soak.h"
#include "harness/throughput.h"

namespace l96::harness {

/// Worker-count resolution shared by every runner: 0 picks the hardware
/// concurrency, floored at 2 so the concurrent path is always exercised.
unsigned resolve_workers(unsigned requested);

/// Run `fn(0..n)` on min(resolve_workers(threads), n) worker threads with
/// a shared atomic job counter.  Returns the number of workers that
/// executed at least one job; rethrows the first job exception after the
/// pool joins.  The one pool every family shares.
std::size_t run_indexed_jobs(std::size_t n, unsigned threads,
                             const std::function<void(std::size_t)>& fn);

/// Fields every run shares, defined once.  seed / batch / params are the
/// row-construction defaults (the row_defaults() helpers stamp them onto
/// new rows); run() itself consumes label, workers, and out_path.
struct RunnerSpec {
  std::string label;
  std::uint64_t seed = 1;
  unsigned workers = 0;  ///< 0 = hardware concurrency, floored at 2
  std::size_t batch = 1;
  MachineParams params = MachineParams::defaults();
  /// When non-empty, run() writes the emitted section there (directories
  /// are created) and records the path in Outcome::out_path.
  std::string out_path;
};

struct FleetRunSpec {
  RunnerSpec common;
  std::vector<FleetSpec> rows;
  BurstCostTable costs;

  /// A fresh row stamped with the shared defaults.
  FleetSpec row_defaults() const {
    FleetSpec s;
    s.seed = common.seed;
    s.batch = common.batch;
    s.params = common.params;
    return s;
  }
};

struct ShardRunSpec {
  RunnerSpec common;
  std::vector<ShardSpec> rows;
  BurstCostTable costs;

  ShardSpec row_defaults() const {
    ShardSpec s;
    s.fleet.seed = common.seed;
    s.fleet.batch = common.batch;
    s.fleet.params = common.params;
    return s;
  }
};

struct RecoveryRunSpec {
  RunnerSpec common;
  std::vector<RecoverySpec> rows;
  BurstCostTable costs;

  RecoverySpec row_defaults() const {
    RecoverySpec s;
    s.fleet.seed = common.seed;
    s.fleet.batch = common.batch;
    s.fleet.params = common.params;
    return s;
  }
};

struct LbRunSpec {
  RunnerSpec common;
  std::vector<LbSpec> rows;
  LbCostTable costs;

  LbSpec row_defaults() const {
    LbSpec s;
    s.seed = common.seed;
    s.batch = common.batch;
    s.params = common.params;
    return s;
  }
};

struct SoakRunSpec {
  RunnerSpec common;
  std::vector<SoakSpec> rows;
};

/// One throughput-stream row (Section 4.1's "techniques do not hurt
/// throughput" check, as a spec'd run instead of ad-hoc calls).
struct StreamRowSpec {
  std::string label;
  net::StackKind kind = net::StackKind::kTcpIp;
  code::StackConfig config;
  std::uint64_t bytes = 256 * 1024;     ///< TCP: bulk transfer size
  std::uint64_t calls = 32;             ///< RPC: number of calls
  std::uint64_t call_bytes = 8 * 1024;  ///< RPC: bytes per call
};

struct StreamRunSpec {
  RunnerSpec common;
  std::vector<StreamRowSpec> rows;
};

/// What every run() overload returns: the family's typed results (only
/// the matching vector is populated) plus the uniform envelope.
struct Outcome {
  std::string schema;          ///< "l96.<name>.vN" of the emitted section
  Json section = Json::object();  ///< the emitted section
  bool ok = true;              ///< soak: all reports ok(); others: true
  std::size_t workers_used = 0;
  std::string out_path;        ///< where the section was written ("" = not)

  std::vector<FleetResult> fleet;
  std::vector<ShardResult> shard;
  std::vector<RecoveryResult> recovery;
  std::vector<LbResult> lb;
  std::vector<SoakReport> soak;
  std::vector<ThroughputResult> stream;
};

Outcome run(const FleetRunSpec& spec);
Outcome run(const ShardRunSpec& spec);
Outcome run(const RecoveryRunSpec& spec);
Outcome run(const LbRunSpec& spec);
Outcome run(const SoakRunSpec& spec);
Outcome run(const StreamRunSpec& spec);

/// Schema-versioned sections for the soak and stream families
/// (`l96.soak.v1`, `l96.stream.v1`); the other families' emitters sit
/// beside their engines (fleet_json / shard_json / recovery_json /
/// lb_json).
Json soak_json(const std::vector<SoakSpec>& specs,
               const std::vector<SoakReport>& reports);
Json stream_json(const std::vector<StreamRowSpec>& specs,
                 const std::vector<ThroughputResult>& results);

}  // namespace l96::harness
