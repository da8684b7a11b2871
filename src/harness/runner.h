// Unified harness runner API: one spec shape, one entry point, one worker
// pool.
//
// Every run is described by a *RunSpec struct — a shared RunnerSpec
// (label, workers, output path: defined once, here) plus the family's rows
// and, for the closed-loop families, the one cost table that prices them —
// and executed by an overload of
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

/// Fields every run shares, defined once.  run() consumes workers and
/// out_path; nothing reads label, which stays because perfbench assigns
/// it.
struct RunnerSpec {
  std::string label;
  unsigned workers = 0;  ///< 0 = hardware concurrency, floored at 2
  /// When non-empty, run() writes the emitted section there (directories
  /// are created) and records the path in Outcome::out_path.
  std::string out_path;
};

/// A closed-loop family's run: its rows, all priced by one cost table
/// (measure_burst_costs, or measure_lb_costs for LB rows).
template <typename Row>
struct PricedRunSpec {
  RunnerSpec common;
  std::vector<Row> rows;
  BurstCostTable costs;
};

using FleetRunSpec = PricedRunSpec<FleetSpec>;
using ShardRunSpec = PricedRunSpec<ShardSpec>;
using RecoveryRunSpec = PricedRunSpec<RecoverySpec>;
using LbRunSpec = PricedRunSpec<LbSpec>;

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
