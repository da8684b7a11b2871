// The load-balancer failover harness: price the LB tier's forwarding path
// under live traffic and failure scripts.
//
// The fleet and recovery rows price an *endpoint's* receive activation;
// an LB row prices the *forwarding tier* between the client and the
// backend pool (net/lb.h).  Its cost table is a one-position
// BurstCostTable of kind kLb, measured once per (config, params) from real
// captured LbHost activations:
//
//  * fast_us — the pinned fast path: conn-track hit, MAC rewrite, forward
//    (lance_intr -> lb_classify -> lb_track -> lb_rewrite -> lb_forward
//    -> lance_send), lowered and replayed under the config's layout
//    exactly like an endpoint path (measure_side, kind = kLb).
//  * slow_us — the same frame arriving on a *stale* conn-track entry
//    (its backend was evicted): the composite's guard fails and the
//    standalone rebind path runs, Maglev hash + table probe included,
//    priced under the fast capture's layout profile.
//
// An LB row is a fleet row behind a different topology, as a recovery row
// is: an LbSpec is a FleetSpec plus the pool, its health probes and the
// script.  run_lb() runs the one closed-loop engine
// (harness/fleet_internal.h) with the LB topology — an LbWorld: client
// fleet -> LB -> N backends —
// and the ChaosTimeline that drains, crashes, and partitions backends as
// its disruption; every client->LB frame is priced as
//
//     wire leg in + conn-track lookup + (fast | slow) + wire leg out
//
// and the result reports per-phase percentiles (steady vs disrupted),
// packet conservation under loss, per-rebuild remap counts (the Maglev
// disruption bound bench_lb_failover enforces), and per-window
// time-to-steer-away / time-to-restore — byte-identical for any worker
// count (enforced by the bench).
#pragma once

#include <cstdint>
#include <vector>

#include "harness/fleet.h"
#include "harness/json.h"
#include "net/chaos.h"
#include "net/lb.h"

namespace l96::harness {

/// Measure the LB tier's cost table for `cfg`: warm an LbWorld's
/// ping-pong flow, capture one pinned-hit forwarding activation (fast),
/// invalidate the conn track so the next frame records the stale rebind
/// (slow), and price both with measure_side under kind = kLb — the slow
/// activation replays under the fast capture's layout profile, so with
/// path inlining it pays the standalone cold-segment placements.  The
/// forwarding path has one burst position: fast_us and slow_us hold one
/// entry each.
BurstCostTable measure_lb_costs(const code::StackConfig& cfg,
                                const MachineParams& params =
                                    MachineParams::defaults());

/// One failover row: a fleet row steered across a backend pool while a
/// failure script runs.
struct LbSpec {
  /// Population, schedule, stack config (path inlining on: the slow-path
  /// fallback is what failover prices) and params.  scheme,
  /// cache_capacity and cache_costs configure the LB's conn track, which
  /// defaults to the LB's own capacity; kind must stay TCP/IP, and rules
  /// and churn_every 0.
  FleetSpec fleet{.label = {},
                  .config = {},
                  .cache_capacity = net::LbOptions{}.track_capacity};
  std::size_t backends = 4;
  std::size_t maglev_table_size = net::MaglevTable::kDefaultTableSize;
  net::LbHealthParams health{};
  /// Backend-targeted failure script (drain/undrain, crash/reboot,
  /// backend-link blackouts), anchored at schedule time zero.
  net::ChaosTimeline chaos;
};

/// Per-disruption-window steering verdict, derived from the LB's rebuild
/// records: how long after the fault began did the pool stop offering
/// the target backend, and how long after it ended was it restored.
struct LbSteer {
  net::ChaosWindow window;
  std::uint64_t start_abs_us = 0;
  std::uint64_t end_abs_us = 0;
  std::uint64_t samples_in_window = 0;
  bool steered_away = false;  ///< a rebuild removed the target backend
  double tta_us = -1;         ///< rebuild time - window start (detection)
  bool restored = false;      ///< a rebuild restored it after window end
  double ttr_us = -1;         ///< rebuild time - window end
};

struct LbResult {
  LbSpec spec;  ///< echoed for reporting
  /// The fleet-engine view: client->LB frames priced, conn-track stats
  /// (fleet.cache), overall latency, sim time and sample digest.
  /// Conservation under chaos (bench-enforced):
  ///   spec.fleet.packets == fleet.scheduled_sampled + lost_packets
  ///   fleet.packets_sampled ==
  ///       fleet.scheduled_sampled + fleet.handshake_sampled
  FleetResult fleet;

  /// Scheduled packets whose connection died with the byte undelivered
  /// (crash failover); a drain-only script must lose zero (bench).
  std::uint64_t lost_packets = 0;
  std::uint64_t reconnects = 0;

  // LB-tier counters (harvested from the LbHost).
  std::uint64_t forwards = 0;
  std::uint64_t slow_forwards = 0;
  std::uint64_t returns_forwarded = 0;
  std::uint64_t drops_no_backend = 0;
  std::uint64_t dark_forwards = 0;
  std::uint64_t health_probes = 0;
  std::vector<net::LbRebuild> rebuilds;

  // Client/backend-side fallout.
  std::uint64_t client_retransmits = 0;
  std::uint64_t client_syn_retransmits = 0;
  std::uint64_t rst_sent = 0;        ///< sum over backend incarnations alive
  std::uint64_t frames_to_dead = 0;  ///< frames that hit a crashed backend
  std::uint64_t blackout_drops = 0;  ///< frames a dark backend link ate
  std::uint64_t purged_events = 0;
  std::uint32_t backend_incarnations = 0;  ///< sum over the pool

  // Latency split steady vs disrupted (inside a failure window or its
  // repair tail).
  LatencyPercentiles steady;
  LatencyPercentiles disrupted;
  std::uint64_t steady_samples = 0;
  std::uint64_t disrupted_samples = 0;

  std::vector<LbSteer> windows;
};

/// Run one failover row.  Throws std::runtime_error (naming the row) when
/// the world stalls, and std::invalid_argument when the spec is malformed
/// or the cost table is not an LB table for its config/params.
LbResult run_lb(const LbSpec& spec, const BurstCostTable& costs);

/// The rows + shared costs as a schema-versioned section (`l96.lb.v2`):
/// each row is the fleet row prefix, then the LB keys, then the results.
Json lb_json(const BurstCostTable& costs, const std::vector<LbResult>& rows);

}  // namespace l96::harness
