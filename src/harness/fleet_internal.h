// Internal surface of the one closed-loop fleet engine, shared by run_fleet,
// the sharded runner (harness/shard.h), run_recovery and run_lb.
//
//  1. build_schedule(): the global burst schedule (Zipf flow draws, burst
//     lengths, churn marks), a pure function of the spec that every runner
//     replays, so no decision depends on core count, topology or script.
//  2. The TCP loop executes the slice of the schedule one world owns.  It
//     takes a Topology (one server behind a wire, or a load balancer in
//     front of a backend pool) and an optional Disruption (a chaos script
//     plus TCP survival knobs): with one it paces the schedule across the
//     script, repairs dead connections and accounts lost sends; without
//     one it is the plain fleet.  Every priced sample carries its global
//     (burst, phase) merge key.
//  3. The caller builds its report: the sharded runner merges per-core
//     streams in schedule order; recovery and LB split them by phase.
//
// In-tree plumbing for harness/{fleet,shard,recovery,lb}.cc and the tests;
// not a public API.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "harness/fleet.h"
#include "harness/json.h"
#include "harness/shard.h"
#include "net/chaos.h"
#include "net/world.h"
#include "protocols/tcp.h"

namespace l96::harness::fleet_detail {

/// Ports/procs the fleet engine owns.
inline constexpr std::uint16_t kFleetServerPort = 7000;
inline constexpr std::uint16_t kFleetClientPortBase = 10'000;
inline constexpr std::uint16_t kFleetRpcProcBase = 100;

/// Client ports live in [kFleetClientPortBase, 65535]: the flows one
/// server port takes before the next server port opens.
inline constexpr std::size_t kClientPortSpan = 65'536 - kFleetClientPortBase;

/// A TCP flow's wire ports.
struct FlowPorts {
  std::uint16_t client = 0;
  std::uint16_t server = 0;
};

/// The one flow identity rule.  A world numbers its own flows j = 0, 1, ...
/// (never their global index), and flow j connects from client port
/// kFleetClientPortBase + j % kClientPortSpan to server port
/// kFleetServerPort + j / kClientPortSpan.  The flow key and the TCP demux
/// both include the server port, and decoy rules pin only destination ports
/// below 7000, so a world holds any number of flows.
constexpr FlowPorts flow_ports(std::size_t j) {
  return {
      static_cast<std::uint16_t>(kFleetClientPortBase + j % kClientPortSpan),
      static_cast<std::uint16_t>(kFleetServerPort + j / kClientPortSpan)};
}

/// Server ports a world of `flows` flows listens on.
constexpr std::size_t server_port_count(std::size_t flows) {
  return (flows + kClientPortSpan - 1) / kClientPortSpan;
}

/// Listen with `sink` on every server port a world of `flows` flows needs,
/// and again after each reboot of `server`.
void serve_flows(net::Host& server, proto::TcpUpper& sink,
                 std::size_t flows);

/// One globally-scheduled burst: `len` back-to-back packets on `flow`.
struct ScheduledBurst {
  std::size_t flow = 0;      ///< global flow index (Zipf draw)
  std::uint64_t len = 0;     ///< packets in this burst (last one truncated)
  bool churn_after = false;  ///< churn flow 0 after this burst
};

/// The deterministic global schedule.
std::vector<ScheduledBurst> build_schedule(const FleetSpec& spec);

/// A priced sample tagged with its global merge key.  phase 0 = a frame
/// priced inside burst `burst`; phase 1 = a frame priced between bursts
/// (churn or repair handshakes) after burst `burst`.  Within one (burst,
/// phase) all samples come from one core, in that core's append order, so
/// a stable merge on the key reproduces the one-world stream.
struct TaggedSample {
  std::uint64_t burst = 0;
  std::uint32_t phase = 0;
  double us = 0;
};

/// A closed interval of virtual time, [begin, end].
struct Interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// What one world measured: its FleetResult, the tagged samples, and what
/// a disrupted run's report needs to split them by phase.
struct CoreRunResult {
  FleetResult result;
  std::vector<TaggedSample> samples;
  // Recorded only under a disruption:
  std::vector<std::uint64_t> sample_times;    ///< virtual time of each sample
  std::vector<std::uint64_t> delivery_times;  ///< each completed delivery
  std::vector<Interval> repairs;  ///< every lost send and reconnect repair
  std::uint64_t base_us = 0;      ///< schedule time zero, the script origin
};

/// Demux-map sizing for a world holding `flows` connections: the
/// historical 64-bucket table up to 64 flows, then the next power of two
/// so chains stay O(1), capped at 2^16 because the buckets are carved from
/// the simulated arena (larger worlds run longer chains).
std::size_t conn_bucket_count(std::size_t flows);

/// Where a closed-loop run sends its traffic and how it prices what
/// arrives: the engine drives the client, the topology owns the world.
class Topology {
 public:
  using FrameHook =
      std::function<void(const code::FlowLookupResult&, bool slow_path)>;

  Topology() = default;
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;
  virtual ~Topology() = default;

  virtual xk::EventManager& events() = 0;
  bool run_until(xk::PredicateRef pred, std::uint64_t max_us) {
    return events().run_until(pred, max_us);
  }
  virtual net::Host& client() = 0;
  /// The hosts that accept the fleet's TCP connections.
  virtual const std::vector<net::Host*>& servers() const = 0;
  /// The address the client connects to.
  virtual std::uint32_t server_ip() = 0;
  /// Listen with `sink` on every server port `flows` flows need, on every
  /// server (again after each reboot).
  virtual void serve(proto::TcpUpper& sink, std::size_t flows) = 0;
  virtual void install(const net::ChaosTimeline& chaos,
                       std::uint64_t base_us) = 0;
  /// Counters of the priced classification tier.
  virtual code::FlowCacheStats stats() = 0;
  virtual void reset_stats() = 0;
  /// Route every priced inbound frame to `hook`.
  virtual void set_frame_hook(FrameHook hook) = 0;
  /// Price one frame at burst position `pos`; each topology keeps its own
  /// expression and floating-point summation order.
  virtual double price(const code::FlowLookupResult& lr, bool slow,
                       std::size_t pos) const = 0;
  /// Run time after the script's last window before verdicts are read.
  virtual std::uint64_t settle_us() const { return 0; }
};

/// One client and one server on one wire: the fleet's own topology.  A
/// frame costs controller + lookup + fast|slow at its burst position.
class DirectTopology final : public Topology {
 public:
  /// Builds the world (demux sized for `flows`), the server's flow cache,
  /// and the spec's decoy rules.
  DirectTopology(const FleetSpec& spec, const BurstCostTable& costs,
                 std::size_t flows);

  net::World& world() noexcept { return world_; }

  xk::EventManager& events() override { return world_.events(); }
  net::Host& client() override { return world_.client(); }
  const std::vector<net::Host*>& servers() const override { return servers_; }
  std::uint32_t server_ip() override { return world_.server().address().ip; }
  void serve(proto::TcpUpper& sink, std::size_t flows) override;
  void install(const net::ChaosTimeline& chaos,
               std::uint64_t base_us) override {
    chaos.install(world_, base_us);
  }
  code::FlowCacheStats stats() override {
    return world_.server().flow_cache()->stats();
  }
  void reset_stats() override { world_.server().flow_cache()->reset_stats(); }
  void set_frame_hook(FrameHook hook) override {
    world_.server().set_deliver_hook(std::move(hook));
  }
  double price(const code::FlowLookupResult& lr, bool slow,
               std::size_t pos) const override;

 private:
  net::World world_;
  const BurstCostTable& costs_;
  std::vector<net::Host*> servers_;
};

/// A failure script anchored at schedule time zero, plus keepalive and SYN
/// retry bounds for client and servers (each applied only when nonzero).
struct Disruption {
  net::ChaosTimeline chaos;
  std::uint64_t keepalive_idle_us = 0;
  std::uint64_t keepalive_intvl_us = 0;
  std::uint32_t keepalive_probes = 0;
  std::uint32_t max_syn_rexmts = 0;
};

/// Execute the sub-schedule owned by `core_id` on a private direct world.
///
/// `flow_core[i]` maps global flow i to its owning core; this core opens
/// only its own flows (in ascending global order, numbered by flow_ports)
/// and walks the global schedule, executing the bursts it owns.  Churn
/// marks execute on the core that owns flow 0.  Steering still hashes each
/// flow's canonical global label (see harness/shard.h).
CoreRunResult run_fleet_core(const FleetSpec& spec,
                             const BurstCostTable& costs,
                             const std::vector<ScheduledBurst>& schedule,
                             const std::vector<std::uint32_t>& flow_core,
                             std::uint32_t core_id);

/// The whole TCP schedule of `spec` on `topo`, through `disruption`
/// (recovery and LB rows).
CoreRunResult run_tcp_flat(Topology& topo, const FleetSpec& spec,
                           const Disruption& disruption);

/// Samples of a disrupted run priced inside [begin, end).
std::uint64_t samples_between(const CoreRunResult& core, std::uint64_t begin,
                              std::uint64_t end);

/// A disrupted run's samples split by whether they fall inside any phase.
struct PhaseSplit {
  LatencyPercentiles outside;
  LatencyPercentiles inside;
  std::uint64_t outside_samples = 0;
  std::uint64_t inside_samples = 0;
};
PhaseSplit split_phases(const CoreRunResult& core,
                        const std::vector<Interval>& phases);

/// Shared row validation (path-inlining on, non-empty schedule, cost table
/// matched to config/params and to `priced`, the kind the row's topology
/// prices: spec.kind for direct rows, kLb for LB rows).
void validate_fleet_spec(const FleetSpec& spec, const BurstCostTable& costs,
                         net::StackKind priced);

/// Shard rows as (row, core) jobs on `workers` threads; rows merged
/// serially, in row order.
std::vector<ShardResult> run_shards(const std::vector<ShardSpec>& rows,
                                    const BurstCostTable& costs,
                                    unsigned workers,
                                    std::size_t& workers_used);

// FNV-1a helpers shared by the digests and machine_params_key.
std::uint64_t fnv1a_init();
void fnv1a_value_d(std::uint64_t& h, double v);

/// Percentiles over a sample vector (sorts a copy).
LatencyPercentiles percentiles(std::vector<double> s);

// JSON pieces every engine section shares.
/// A row's FleetSpec inputs, the first keys of every fleet, shard,
/// recovery and LB row.
Json spec_json(const FleetSpec& s);
Json percentiles_json(const LatencyPercentiles& p);
Json cache_json(const code::FlowCacheStats& c);
Json costs_json(const BurstCostTable& costs);

}  // namespace l96::harness::fleet_detail
