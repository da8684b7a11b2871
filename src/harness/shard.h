// Sharded fleets: RSS-style flow steering over per-core machine models.
//
// A shard row is a fleet row (harness/fleet.h) executed across N simulated
// cores.  Each core is a complete, private machine: its own net::World
// (and therefore its own sim::MemorySystem arena, primary caches, demux
// map, and connection population), its own code::FlowCache, and the shared
// position-indexed burst cost table.  Flows are steered to cores the way a
// receive-side-scaling NIC steers them — a deterministic hash of the
// flow's canonical global label (code::FlowKeySpec over the same fields
// the classifier keys on, numbered by the flow's global index) — or by a
// least-loaded assignment for comparison.  The owning core then numbers
// its flows locally, like every world does, so steering never depends on
// the wire ports a core assigns.  A flow lives on exactly one core, so
// per-flow burst coalescing never crosses a shard boundary and each core's
// cache state evolves exactly as a private machine's would.
//
// Execution replays the ONE global burst schedule (fleet_detail::
// build_schedule — Zipf draws, burst lengths, churn marks; a pure function
// of the fleet spec): each core executes the bursts it owns against its
// private world, tagging every priced sample with its global (burst,
// phase) key, and a serial merge walks the schedule in global order to
// rebuild the fleet-wide sample stream.  Determinism contract:
//
//  * fixed spec => byte-identical per-core streams, merged stream, and
//    digests, for any harness::run(ShardRunSpec) worker count (cores are
//    simulated; worker threads only decide who executes which core);
//  * cores == 1 reproduces run_fleet byte-for-byte: same schedule, same
//    world construction, same samples, same sample_digest (tests and
//    bench_fleet's shard grid exit-enforce the pin).
//
// On top of the merged stream sits an optional open-loop queueing view:
// with arrival_us > 0, scheduled packet g arrives at g * arrival_us and
// queues FCFS behind its core (service time = the packet's priced cost);
// sojourn = queueing delay + service.  This is the head-of-line view: a
// Zipf-hot flow pins its core past saturation and that core's sojourn
// tail explodes while the fleet's median stays flat (the nanoPU
// single-hot-core scenario), which bench_fleet's shard grid demonstrates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/fleet.h"

namespace l96::harness {

/// How flows are assigned to cores.
enum class SteeringPolicy {
  /// RSS: splitmix64 over the flow's canonical FlowKeySpec label,
  /// modulo the core count.  Oblivious to load — one hot flow pins one
  /// core, exactly like hardware hash steering.
  kFlowHash,
  /// Assign each flow, at its first appearance in the schedule, to the
  /// core with the least scheduled packets so far (ties to the lowest
  /// core id); flows the schedule never draws fall back to the hash.
  /// Sticky: a flow never migrates once assigned.
  kLeastLoaded,
};

const char* to_string(SteeringPolicy p) noexcept;
/// Parses "hash" / "least" (and the long forms "flow_hash" /
/// "least_loaded"); throws std::invalid_argument otherwise.
SteeringPolicy steering_policy_from_string(const std::string& s);

/// One shard row: a fleet population spread over `cores` cores.
struct ShardSpec {
  FleetSpec fleet;
  std::size_t cores = 1;
  SteeringPolicy steering = SteeringPolicy::kFlowHash;
  /// Open-loop arrival spacing for the queueing view: scheduled packet g
  /// arrives at g * arrival_us.  0 disables queueing (sojourn == service,
  /// every core idles between packets).
  double arrival_us = 0;
};

/// What one core contributed: the engine's record of its world, plus the
/// queueing view the merge adds.
struct ShardCoreStats {
  std::uint32_t core = 0;
  std::size_t flows = 0;  ///< flows steered here (drawn or not)
  /// This core's world as the engine left it; fleet.latency is the priced
  /// per-packet service cost and fleet.sample_digest hashes this core's
  /// stream.
  FleetResult fleet;
  LatencyPercentiles sojourn;  ///< queueing included (== fleet.latency when
                               ///< arrival_us == 0)
  double busy_us = 0;          ///< total service time executed here
  double utilization = 0;      ///< busy_us / merged makespan
  double max_wait_us = 0;      ///< worst queueing delay (arrival model)
};

struct ShardResult {
  ShardSpec spec;
  std::vector<ShardCoreStats> cores;  ///< indexed by core id

  // Merged fleet-wide view (global schedule order).
  std::uint64_t owned_packets = 0;  ///< summed over cores: spec packets
  std::uint64_t packets_sampled = 0;
  std::uint64_t scheduled_sampled = 0;
  std::uint64_t handshake_sampled = 0;
  std::uint64_t dropped_in_churn = 0;
  std::uint64_t lost_packets = 0;
  std::uint64_t bursts = 0;
  std::uint64_t slow_packets = 0;
  std::uint64_t churns = 0;
  code::FlowCacheStats cache;   ///< summed across cores
  LatencyPercentiles latency;   ///< merged service distribution
  LatencyPercentiles sojourn;   ///< merged sojourn distribution
  /// FNV-1a over the merged sample stream; with cores == 1 this is
  /// byte-identical to run_fleet's sample_digest (the pin).
  std::uint64_t sample_digest = 0;
  /// Completion time of the busiest core under the arrival model (with
  /// arrival_us == 0: the largest per-core service sum — the batch
  /// makespan).
  double makespan_us = 0;
  /// Aggregate scheduled throughput: scheduled_sampled / makespan_us.
  double throughput_mpps = 0;
  std::uint32_t hot_core = 0;  ///< core with the largest busy_us
  /// True when every core passes conservation_error(), the merge consumed
  /// every core's samples, and the cores' owned packets sum to
  /// spec.fleet.packets.
  bool conserved = false;
};

/// Deterministic flow -> core map for `spec.connections` flows.  Exposed
/// for tests: steering depends only on (fleet spec, cores, policy), never
/// on execution.
std::vector<std::uint32_t> steer_flows(const FleetSpec& fleet,
                                       std::size_t cores, SteeringPolicy p);

/// Schema-versioned section (`l96.shard.v1`) with the shared costs, merged
/// rows, and per-core breakdowns.  Throws std::invalid_argument for a row
/// `costs` could not have priced.
Json shard_json(const BurstCostTable& costs,
                const std::vector<ShardResult>& rows);

}  // namespace l96::harness
