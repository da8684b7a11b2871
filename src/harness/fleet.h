// The fleet engine: many concurrent connections over one net::World,
// demuxed through a flow cache (code/flow_cache.h) in front of the
// classifier's rule scan.
//
// The single-connection Experiment measures the steady-state latency path;
// a fleet run asks the orthogonal question the paper's Section 3.3
// classifier discussion leaves open: what does demultiplexing cost when N
// flows share one host and the classifier is front-ended by a
// destination-locality cache (Jain, DEC-TR-592)?  The engine
//
//  * opens N client->server connections over one World,
//  * drives a deterministic, Zipf-distributed *burst* schedule across them
//    (seeded sampler; one flow draw per burst of `batch` back-to-back
//    packets — per-flow coalescing in the style of batched NIC interfaces;
//    popularity skew and batch size are the sweep axes),
//  * prices every inbound server frame as
//        controller/wire + cache-lookup cost + processing time,
//    where processing time comes from a *position-indexed* burst cost
//    table: the first packet of a burst pays the full steady replay
//    (untraced code scrubbed the primary caches since the last burst),
//    later packets pay the amortized cost of replaying under the residue
//    their predecessors left behind (harness::measure_stream).  A stale
//    cache hit (connection churned, entry resident) routes through the
//    standalone slow path at its burst position and breaks the carryover
//    for the packet after it, and
//  * optionally churns the hottest connection every K packets (close +
//    reopen), so the demux map's unbind hook invalidates the flow and the
//    next frame takes a measured stale hit.
//
// Everything is a pure function of the spec: fixed seed + spec => byte-
// identical samples, regardless of how many harness::run worker threads
// measured the grid (results are stored by row index, one private World
// per row).  With batch == 1 every packet is first-in-burst and pays
// fast_us[0] / slow_us[0].
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "code/flow_cache.h"
#include "harness/experiment.h"
#include "harness/json.h"

namespace l96::harness {

/// Deterministic fingerprint of every MachineParams field that influences
/// measured costs.  Burst cost tables carry the key they were measured
/// under; run_fleet refuses to price a row whose params differ (a grid
/// sweeping cache sizes must measure one table per cell, not reuse the
/// defaults').
std::uint64_t machine_params_key(const MachineParams& params);

/// Position-indexed per-packet pricing for one (kind, config, params):
/// fast_us[p] is the steady receive-activation cost when the packet is the
/// (p+1)-th back-to-back packet of its burst; slow_us[p] is the standalone
/// slow-path cost (guard failure / stale hit) entered at burst position p.
/// Positions past the table clamp to the last entry (the steady-amortized
/// floor).  Measured once per (kind, config, params) by
/// measure_burst_costs.
struct BurstCostTable {
  double controller_us = 0;  ///< one controller+wire traversal (min frame)
  std::vector<double> fast_us;
  std::vector<double> slow_us;
  net::StackKind kind = net::StackKind::kTcpIp;
  std::string config_name;
  std::uint64_t params_key = 0;  ///< machine_params_key() of the params used

  std::size_t positions() const noexcept { return fast_us.size(); }
  double fast_at(std::size_t pos) const {
    return fast_us[pos < fast_us.size() ? pos : fast_us.size() - 1];
  }
  double slow_at(std::size_t pos) const {
    return slow_us[pos < slow_us.size() ? pos : slow_us.size() - 1];
  }
};

/// Measure a BurstCostTable with `max_positions` entries for `cfg` on
/// `kind`: capture the server's receive activation, price a back-to-back
/// stream of it (fast_us[p] = position p of measure_stream), then price
/// the marker-bracketed slow-path form entered after p fast activations
/// (slow_us[p]).  Position 0 does not depend on how many positions were
/// measured (tested).
BurstCostTable measure_burst_costs(net::StackKind kind,
                                   const code::StackConfig& cfg,
                                   std::size_t max_positions = 1,
                                   const MachineParams& params =
                                       MachineParams::defaults());

/// Seeded Zipf(s) sampler over {0, ..., n-1}: P(k) proportional to
/// 1/(k+1)^s (s = 0 is uniform).  Deterministic: xorshift64* over the
/// seed, inverse-CDF lookup.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s, std::uint64_t seed);
  std::size_t next();

 private:
  std::vector<double> cdf_;
  std::uint64_t state_;
};

/// One fleet row: a population of connections under one cache scheme.
struct FleetSpec {
  std::string label;
  net::StackKind kind = net::StackKind::kTcpIp;
  /// Stack configuration for both hosts; must have path_inlining on for
  /// the slow-path fallback to mean anything (PIN / ALL).
  code::StackConfig config;
  std::size_t connections = 8;
  std::uint64_t packets = 256;    ///< scheduled client->server packets
  /// Packets sent back to back per scheduled burst (per-flow coalescing:
  /// the Zipf sampler draws ONE flow per burst).  1 = the pre-burst
  /// engine: every packet is an independent first-in-burst activation.
  std::size_t batch = 1;
  double zipf_s = 1.1;            ///< flow-popularity skew (0 = uniform)
  std::uint64_t seed = 1;
  code::FlowCacheScheme scheme = code::FlowCacheScheme::kLru;
  std::size_t cache_capacity = 8;
  code::FlowCacheCosts cache_costs{};
  /// Decoy classifier paths installed ahead of the real fast path on the
  /// server (protocols/rulegen.h) — the production-scale rule table whose
  /// scan cost the flow cache is supposed to amortize.  0 keeps the default
  /// hand-written classifier (and the historical numbers) byte for byte.
  std::size_t rules = 0;
  std::uint64_t rule_seed = 1;
  /// Every `churn_every` scheduled packets, close and reopen the hottest
  /// connection (TCP/IP only) between bursts: the demux unbind invalidates
  /// its flow and the reopened flow's next frame is a stale hit.  0
  /// disables churn.
  std::uint64_t churn_every = 0;
  /// Params this row is priced under; must match the cost table's
  /// params_key or run_fleet throws (cache-size sweeps must not silently
  /// reuse costs measured under the defaults).
  MachineParams params = MachineParams::defaults();
};

struct LatencyPercentiles {
  double p50 = 0, p90 = 0, p99 = 0, p999 = 0;
  double mean = 0, max = 0;
};

struct FleetResult {
  FleetSpec spec;                   ///< echoed for reporting
  std::uint64_t packets_sampled = 0;  ///< inbound frames priced at the server
  std::uint64_t scheduled_sampled = 0;  ///< of which: scheduled data packets
  std::uint64_t handshake_sampled = 0;  ///< of which: churn handshake frames
  /// Scheduled packets that were never priced because their connection was
  /// torn down with the frame still in flight.  Conservation (enforced by
  /// bench_fleet_scaling's exit status):
  ///   spec.packets == scheduled_sampled + dropped_in_churn
  ///   packets_sampled == scheduled_sampled + handshake_sampled
  std::uint64_t dropped_in_churn = 0;
  std::uint64_t bursts = 0;           ///< scheduled bursts (flow draws)
  std::uint64_t slow_packets = 0;     ///< routed through the slow path
  std::uint64_t churns = 0;
  code::FlowCacheStats cache;       ///< scheme hit/miss/stale counters
  LatencyPercentiles latency;       ///< per-packet latency distribution (us)
  double sim_us = 0;                ///< virtual time the fleet run consumed
  std::uint64_t sample_digest = 0;  ///< FNV-1a over the per-packet samples
};

/// Run one fleet row.  Throws std::runtime_error (naming the row) if the
/// world stalls before the schedule completes, and std::invalid_argument
/// when the cost table does not match the spec's kind/config/params.
FleetResult run_fleet(const FleetSpec& spec, const BurstCostTable& costs);

/// The rows + shared position-indexed costs as a schema-versioned section
/// (`l96.fleet.v2`) for SweepOutcome::extra_json / standalone emission.
Json fleet_json(const BurstCostTable& costs,
                const std::vector<FleetResult>& rows);

}  // namespace l96::harness
