// run_recovery: the fleet engine (harness/fleet.h) driven through a
// scripted failure timeline (net/chaos.h), with the disruption priced.
//
// A recovery row is a fleet row plus a ChaosTimeline and the TCP survival
// knobs (keepalive, bounded SYN retries).  It runs on the one closed-loop
// engine (harness/fleet_internal.h) with the direct topology and the
// script as its disruption.  With an empty timeline and the knobs off the
// disruption does nothing, so the samples are run_fleet's by construction.
// With a script, the engine
//
//  * installs the timeline (relative to the post-establishment reset
//    point) as infrastructure events, so blackout and crash windows open
//    and close at fixed virtual times regardless of the schedule's state;
//  * paces the Zipf schedule across the script: sends are spread over
//    1.25x the last window's end, so every window overlaps live traffic
//    and the final fifth of the packets land after it (a disruption
//    nobody transmits through teaches nothing, and a window with no
//    successor traffic has no measurable time-to-recover);
//  * accounts a scheduled packet whose connection dies under it (server
//    crash -> RST from the new incarnation, or keepalive reap of the
//    half-open remnant) as lost, re-establishes the connection, and
//    prices the reconnect storm's handshake frames like churn handshakes
//    (position-0 activations through the burst table);
//  * timestamps every priced sample, so the report splits latency into
//    steady vs recovery phases — a recovery phase runs from a window's
//    start until the first completed delivery at or after its end (that
//    first delivery also defines the window's time-to-recover), and every
//    failed send attempt or reconnect repair is a recovery phase of its
//    own, however late the schedule discovers the damage.
//
// Determinism contract: fixed spec => byte-identical samples, digests, and
// window reports, for any harness::run worker count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/fleet.h"
#include "net/chaos.h"

namespace l96::harness {

struct RecoverySpec {
  FleetSpec fleet;           ///< population / schedule / pricing row
  net::ChaosTimeline chaos;  ///< failure script, relative to the reset point
  /// TCP keepalive applied to both hosts when idle != 0 (reaps half-open
  /// connections a server crash leaves behind).
  std::uint64_t keepalive_idle_us = 0;
  std::uint64_t keepalive_intvl_us = 100'000;
  std::uint32_t keepalive_probes = 2;
  /// Bound on SYN retries for the reconnect storm (0 = retry forever).
  std::uint32_t max_syn_rexmts = 0;
};

/// One disruption window's outcome, in absolute virtual time.
struct RecoveryWindow {
  net::ChaosWindow window;       ///< script-relative [start, end)
  std::uint64_t start_abs_us = 0;
  std::uint64_t end_abs_us = 0;
  /// Priced server deliveries inside [start, end): must be 0 for blackout
  /// windows (the wire blackholes everything) and for crash windows (the
  /// dead host discards arrivals) — bench_recovery_latency exit-enforces.
  std::uint64_t samples_in_window = 0;
  bool recovered = false;            ///< a delivery completed after the window
  std::uint64_t first_delivery_abs_us = 0;  ///< when recovered
  /// Time-to-recover: first completed delivery at/after the window's end,
  /// minus the end (< 0 never happens; unrecovered windows report -1).
  double ttr_us = -1;
};

struct RecoveryResult {
  RecoverySpec spec;
  /// The fleet-engine view: sampled packet counts, cache stats, overall
  /// latency, sample digest (byte-identical to run_fleet when the timeline
  /// is empty and the knobs are off).
  FleetResult fleet;
  std::vector<RecoveryWindow> windows;

  // Conservation: fleet.spec.packets ==
  //   fleet.scheduled_sampled + fleet.dropped_in_churn + lost_packets.
  std::uint64_t lost_packets = 0;   ///< scheduled packets that died with a conn
  std::uint64_t reconnects = 0;     ///< re-establishments after a conn died
  std::uint64_t connect_failures = 0;   ///< SYN-retry exhaustions (client)
  std::uint64_t client_retransmits = 0; ///< data rexmts across all client conns
  std::uint64_t client_syn_retransmits = 0;
  std::uint64_t keepalive_probes_sent = 0;  ///< client-side probes
  std::uint64_t keepalive_reaps = 0;        ///< client-side half-open reaps
  std::uint64_t rst_sent = 0;               ///< server RSTs (new incarnation)
  std::uint64_t blackout_drops = 0;         ///< frames the dead link swallowed
  std::uint64_t frames_to_dead = 0;         ///< frames a crashed host discarded
  std::uint64_t purged_events = 0;          ///< timers killed by crashes
  std::uint32_t server_incarnation = 1;     ///< 1 + server reboots

  /// Latency split by phase: recovery covers [window start, first delivery
  /// at/after window end] for every window, plus every failed send attempt
  /// and reconnect repair interval; steady is everything else.
  LatencyPercentiles steady;
  LatencyPercentiles recovery;
  std::uint64_t steady_samples = 0;
  std::uint64_t recovery_samples = 0;
};

/// Run one recovery row.  TCP/IP only (the RPC fleet has no reconnect
/// machinery to measure); the script must not crash the client (it is the
/// measuring instrument) — both violations throw std::invalid_argument.
RecoveryResult run_recovery(const RecoverySpec& spec,
                            const BurstCostTable& costs);

/// Schema-versioned section (`l96.recovery.v1`) for standalone emission /
/// SweepOutcome::extra_json.
Json recovery_json(const BurstCostTable& costs,
                   const std::vector<RecoveryResult>& rows);

}  // namespace l96::harness
