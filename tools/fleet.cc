// Fleet CLI: run one row of the fleet engine and print its report and
// sample digest.
//
//   fleet [--lb N] [--script S] [--config pin|all]
//         [--keepalive IDLE_US] [--syn-retries N]
//         [--burst N] [--cores N] [--steering hash|least] [--arrival-us X]
//         [--rules N] [--rule-seed N] [--workers N] [--json] [--out FILE]
//         [tcp|rpc] [scheme] [connections] [packets] [zipf_s]
//         [seed] [capacity] [churn_every]
//
// `scheme` is one-behind | direct | lru; --config picks the layout every
// host runs (default all).  The flags pick the row kind:
//
//  * --lb N: a load-balancer failover row (harness/lb.h), the client fleet
//    steered across N backends, labelled <CONFIG>/<scheme>/b<N>.
//    `capacity` sizes the LB's conn track (default 1,024).  Prints the
//    steering report: rebuilds, and per window the time to steer away
//    and to restore.
//  * --script S (without --lb): a recovery row (harness/recovery.h),
//    labelled chaos/<scheme>.  Prints the per-window time-to-recover and
//    the steady vs recovery percentiles.  --keepalive arms client and
//    server keepalive probing (interval IDLE_US / 2, 2 probes);
//    --syn-retries bounds the reconnect storm's SYN retransmissions.
//  * otherwise a fleet row, labelled <stack>/<scheme>: flat on one machine
//    (the default), or sharded across --cores N simulated cores with RSS
//    steering (harness/shard.h); --steering picks the flow->core policy
//    and --arrival-us enables the open-loop queueing view.  Prints the
//    hit/stale ratios and the per-packet latency percentiles.  --burst N
//    sends N back-to-back packets per scheduled flow draw, priced at their
//    burst position; --rules N grows the server's classifier to N decoy
//    paths (--rule-seed picks them) and prices the flow cache from
//    measured classifier costs (harness/classify.h).
//
// S is a whitespace-separated chaos script (net/chaos.h), times in virtual
// microseconds from the post-establishment reset point, e.g.
//   "link_down@2000 link_up@52000 crash@150000:server reboot@250000:server"
// or, for an LB row, with backend targets:
//   "drain@20000:backend1 undrain@120000:backend1"
// An LB row without a script runs quiet.
//
// --json prints the row's schema-versioned section (l96.fleet.v2,
// l96.shard.v1, l96.recovery.v1 or l96.lb.v2) instead of the text; --out
// also writes it to FILE.  Compare digests across hosts and worker counts
// to check determinism.
//
// Exit status: 0 on success; 1 on a failed run or a broken row invariant
// (packet conservation, a shard invariant, recovery_error or lb_error);
// 2 on usage errors, including a setting the selected row kind does not
// read (e.g. --cores with --script, or rpc with --lb) and a script event
// the row cannot run (harness::script_error: a backend outside the LB
// pool, a client crash in a recovery row).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "harness/argparse.h"
#include "harness/classify.h"
#include "harness/recovery.h"
#include "harness/runner.h"

namespace {

using namespace l96;

enum RowKind : unsigned { kFleetRow = 1, kRecoveryRow = 2, kLbRow = 4 };

/// The settings only some row kinds read; any other kind rejects them.
struct KindOnly {
  const char* name;  ///< as ArgParser::given() spells it
  bool positional;
  unsigned kinds;
};
constexpr KindOnly kKindOnly[] = {
    {"keepalive", false, kRecoveryRow}, {"syn-retries", false, kRecoveryRow},
    {"burst", false, kFleetRow},        {"cores", false, kFleetRow},
    {"steering", false, kFleetRow},     {"arrival-us", false, kFleetRow},
    {"rules", false, kFleetRow},        {"rule-seed", false, kFleetRow},
    {"churn_every", true, kFleetRow},
};

const char* kind_name(RowKind kind) {
  switch (kind) {
    case kLbRow:
      return "an --lb row";
    case kRecoveryRow:
      return "a --script row";
    default:
      return "a fleet row (no --script or --lb)";
  }
}

void print_fleet(const harness::FleetSpec& spec,
                 const harness::BurstCostTable& costs,
                 const harness::FleetResult& r) {
  std::printf(
      "%s conns=%zu packets=%llu batch=%zu zipf=%.2f seed=%llu cap=%zu "
      "churn=%llu\n",
      spec.label.c_str(), spec.connections,
      static_cast<unsigned long long>(spec.packets), spec.batch, spec.zipf_s,
      static_cast<unsigned long long>(spec.seed), spec.cache_capacity,
      static_cast<unsigned long long>(spec.churn_every));
  std::printf(
      "  sampled=%llu (scheduled=%llu handshake=%llu dropped=%llu) "
      "bursts=%llu\n",
      static_cast<unsigned long long>(r.packets_sampled),
      static_cast<unsigned long long>(r.scheduled_sampled),
      static_cast<unsigned long long>(r.handshake_sampled),
      static_cast<unsigned long long>(r.dropped_in_churn),
      static_cast<unsigned long long>(r.bursts));
  std::printf(
      "  hit=%.4f stale=%.4f slow=%llu churns=%llu lookup_cost=%.2fus\n",
      r.cache.hit_ratio(), r.cache.stale_ratio(),
      static_cast<unsigned long long>(r.slow_packets),
      static_cast<unsigned long long>(r.churns), r.cache.cost_us);
  std::printf(
      "  latency_us p50=%.2f p90=%.2f p99=%.2f p999=%.2f mean=%.2f "
      "max=%.2f\n",
      r.latency.p50, r.latency.p90, r.latency.p99, r.latency.p999,
      r.latency.mean, r.latency.max);
  std::printf("  costs controller=%.1fus fast[0]=%.3fus slow[0]=%.3fus\n",
              costs.controller_us, costs.fast_us.front(),
              costs.slow_us.front());
  for (std::size_t p = 1; p < costs.positions(); ++p) {
    std::printf("        fast[%zu]=%.3fus slow[%zu]=%.3fus\n", p,
                costs.fast_us[p], p, costs.slow_us[p]);
  }
  std::printf("  digest=%016llx\n",
              static_cast<unsigned long long>(r.sample_digest));
}

void print_shard(const harness::ShardSpec& shard,
                 const harness::ShardResult& r) {
  const harness::FleetSpec& spec = shard.fleet;
  std::printf(
      "%s cores=%zu steering=%s conns=%zu packets=%llu batch=%zu zipf=%.2f "
      "seed=%llu cap=%zu churn=%llu arrival_us=%.2f\n",
      spec.label.c_str(), shard.cores, harness::to_string(shard.steering),
      spec.connections, static_cast<unsigned long long>(spec.packets),
      spec.batch, spec.zipf_s, static_cast<unsigned long long>(spec.seed),
      spec.cache_capacity, static_cast<unsigned long long>(spec.churn_every),
      shard.arrival_us);
  std::printf(
      "  sampled=%llu (scheduled=%llu handshake=%llu dropped=%llu) "
      "bursts=%llu hit=%.4f slow=%llu churns=%llu\n",
      static_cast<unsigned long long>(r.packets_sampled),
      static_cast<unsigned long long>(r.scheduled_sampled),
      static_cast<unsigned long long>(r.handshake_sampled),
      static_cast<unsigned long long>(r.dropped_in_churn),
      static_cast<unsigned long long>(r.bursts), r.cache.hit_ratio(),
      static_cast<unsigned long long>(r.slow_packets),
      static_cast<unsigned long long>(r.churns));
  std::printf(
      "  service_us p50=%.2f p99=%.2f p999=%.2f mean=%.2f  "
      "sojourn_us p50=%.2f p99=%.2f p999=%.2f\n",
      r.latency.p50, r.latency.p99, r.latency.p999, r.latency.mean,
      r.sojourn.p50, r.sojourn.p99, r.sojourn.p999);
  std::printf(
      "  makespan=%.1fus throughput=%.4fMpps hot_core=%u conserved=%d\n",
      r.makespan_us, r.throughput_mpps, r.hot_core, r.conserved ? 1 : 0);
  for (const harness::ShardCoreStats& c : r.cores) {
    std::printf(
        "  core %u: flows=%zu sampled=%llu util=%.3f service_p999=%.2f "
        "sojourn_p999=%.2f max_wait=%.2f digest=%016llx\n",
        c.core, c.flows,
        static_cast<unsigned long long>(c.fleet.packets_sampled),
        c.utilization, c.fleet.latency.p999, c.sojourn.p999, c.max_wait_us,
        static_cast<unsigned long long>(c.fleet.sample_digest));
  }
  std::printf("  digest=%016llx\n",
              static_cast<unsigned long long>(r.sample_digest));
}

void print_recovery(const harness::RecoverySpec& spec,
                    const harness::RecoveryResult& r) {
  std::printf("%s conns=%zu packets=%llu zipf=%.2f seed=%llu cap=%zu\n",
              spec.fleet.label.c_str(), spec.fleet.connections,
              static_cast<unsigned long long>(spec.fleet.packets),
              spec.fleet.zipf_s,
              static_cast<unsigned long long>(spec.fleet.seed),
              spec.fleet.cache_capacity);
  std::printf("  script: %s\n", spec.chaos.str().c_str());
  std::printf("  sampled=%llu scheduled=%llu lost=%llu reconnects=%llu "
              "incarnation=%u\n",
              static_cast<unsigned long long>(r.fleet.packets_sampled),
              static_cast<unsigned long long>(r.fleet.scheduled_sampled),
              static_cast<unsigned long long>(r.fleet.lost_packets),
              static_cast<unsigned long long>(r.fleet.reconnects),
              r.server_incarnation);
  std::printf("  rexmt=%llu syn_rexmt=%llu connect_failures=%llu "
              "ka_probes=%llu ka_reaps=%llu rst=%llu\n",
              static_cast<unsigned long long>(r.fleet.client_retransmits),
              static_cast<unsigned long long>(r.fleet.client_syn_retransmits),
              static_cast<unsigned long long>(r.connect_failures),
              static_cast<unsigned long long>(r.keepalive_probes_sent),
              static_cast<unsigned long long>(r.keepalive_reaps),
              static_cast<unsigned long long>(r.rst_sent));
  std::printf("  blackout_drops=%llu frames_to_dead=%llu purged_events=%llu\n",
              static_cast<unsigned long long>(r.blackout_drops),
              static_cast<unsigned long long>(r.frames_to_dead),
              static_cast<unsigned long long>(r.purged_events));
  for (const harness::RecoveryWindow& w : r.windows) {
    std::printf("  window %s [%llu, %llu)us: in_window=%llu recovered=%d "
                "ttr=%.1fus\n",
                w.window.crash ? "crash" : "blackout",
                static_cast<unsigned long long>(w.start_abs_us),
                static_cast<unsigned long long>(w.end_abs_us),
                static_cast<unsigned long long>(w.samples_in_window),
                w.recovered ? 1 : 0, w.ttr_us);
  }
  std::printf("  steady   n=%llu p50=%.2f p99=%.2f p999=%.2f\n",
              static_cast<unsigned long long>(r.steady_samples), r.steady.p50,
              r.steady.p99, r.steady.p999);
  std::printf("  recovery n=%llu p50=%.2f p99=%.2f p999=%.2f\n",
              static_cast<unsigned long long>(r.recovery_samples),
              r.recovery.p50, r.recovery.p99, r.recovery.p999);
  std::printf("  digest=%016llx\n",
              static_cast<unsigned long long>(r.fleet.sample_digest));
}

void print_lb(const harness::LbSpec& spec,
              const harness::BurstCostTable& costs,
              const harness::LbResult& r) {
  const harness::FleetSpec& row = spec.fleet;
  std::printf("%s backends=%zu conns=%zu packets=%llu zipf=%.2f seed=%llu\n",
              row.label.c_str(), spec.backends, row.connections,
              static_cast<unsigned long long>(row.packets), row.zipf_s,
              static_cast<unsigned long long>(row.seed));
  std::printf("  script: %s\n", spec.chaos.str().c_str());
  std::printf("  costs: controller=%.3fus fast=%.3fus slow=%.3fus (%s)\n",
              costs.controller_us, costs.fast_at(0), costs.slow_at(0),
              costs.config_name.c_str());
  std::printf("  sampled=%llu scheduled=%llu lost=%llu reconnects=%llu "
              "incarnations=%u\n",
              static_cast<unsigned long long>(r.fleet.packets_sampled),
              static_cast<unsigned long long>(r.fleet.scheduled_sampled),
              static_cast<unsigned long long>(r.fleet.lost_packets),
              static_cast<unsigned long long>(r.fleet.reconnects),
              r.backend_incarnations);
  std::printf("  forwards=%llu slow=%llu returns=%llu no_backend=%llu "
              "dark=%llu probes=%llu\n",
              static_cast<unsigned long long>(r.forwards),
              static_cast<unsigned long long>(r.slow_forwards),
              static_cast<unsigned long long>(r.returns_forwarded),
              static_cast<unsigned long long>(r.drops_no_backend),
              static_cast<unsigned long long>(r.dark_forwards),
              static_cast<unsigned long long>(r.health_probes));
  std::printf("  track: hits=%llu misses=%llu stale=%llu\n",
              static_cast<unsigned long long>(r.fleet.cache.hits),
              static_cast<unsigned long long>(r.fleet.cache.misses),
              static_cast<unsigned long long>(r.fleet.cache.stale_hits));
  for (const net::LbRebuild& rb : r.rebuilds) {
    std::printf("  rebuild @%lluus %s backend%u: remapped=%zu "
                "invalidated=%zu pool=%zu\n",
                static_cast<unsigned long long>(rb.at_us),
                net::to_string(rb.cause), rb.backend, rb.remapped,
                rb.invalidated, rb.pool_size);
  }
  for (const harness::LbSteer& w : r.windows) {
    std::printf("  window %s backend%u [%llu, %llu)us: steered=%d "
                "tta=%.1fus restored=%d ttr=%.1fus in_window=%llu\n",
                w.window.crash ? "crash" : (w.window.drain ? "drain"
                                                           : "blackout"),
                w.window.index,
                static_cast<unsigned long long>(w.start_abs_us),
                static_cast<unsigned long long>(w.end_abs_us),
                w.steered_away ? 1 : 0, w.tta_us, w.restored ? 1 : 0,
                w.ttr_us,
                static_cast<unsigned long long>(w.samples_in_window));
  }
  std::printf("  steady    n=%llu p50=%.2f p99=%.2f p999=%.2f\n",
              static_cast<unsigned long long>(r.steady_samples), r.steady.p50,
              r.steady.p99, r.steady.p999);
  std::printf("  disrupted n=%llu p50=%.2f p99=%.2f p999=%.2f\n",
              static_cast<unsigned long long>(r.disrupted_samples),
              r.disrupted.p50, r.disrupted.p99, r.disrupted.p999);
  std::printf("  digest=%016llx\n",
              static_cast<unsigned long long>(r.fleet.sample_digest));
}

/// Runs the one row of `rs` and reports it: `verdict`'s message (empty when
/// the row holds) on stderr, then the JSON section (--json) or `print`'s
/// text on stdout.  Returns the exit status: 1 when the run throws or the
/// verdict is not empty.
template <typename Row, typename Verdict, typename Print>
int run_row(const Row& row, const harness::BurstCostTable& costs,
            const harness::CommonCliArgs& common, Verdict verdict,
            Print print) {
  harness::PricedRunSpec<Row> rs;
  rs.common.workers = common.workers;
  rs.common.out_path = common.out;
  rs.rows = {row};
  rs.costs = costs;
  harness::Outcome o;
  try {
    o = harness::run(rs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet: %s\n", e.what());
    return 1;
  }
  const std::string error = verdict(o);
  if (!error.empty()) std::fprintf(stderr, "fleet: %s\n", error.c_str());
  if (common.json) {
    o.section.dump(std::cout);
    std::cout << "\n";
  } else {
    print(o);
  }
  return error.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  harness::FleetSpec row;
  row.config = code::StackConfig::All();
  row.packets = 128;

  harness::ShardSpec shard;
  std::size_t lb_backends = 0;
  std::string script;
  harness::RecoverySpec recovery;

  harness::ArgParser parser(
      "fleet", "run one fleet-engine row (flat, sharded, recovery or LB "
               "failover) and print its report + digest");
  parser.add_option("lb", "N",
                    "LB failover row: steer the fleet across N backends",
                    [&](const std::string& v) {
                      return harness::parse_unsigned(v, &lb_backends) &&
                             lb_backends > 0;
                    });
  parser.add_option("script", "S",
                    "whitespace-separated chaos timeline (a recovery row "
                    "without --lb)",
                    &script);
  parser.add_option("config", "pin|all",
                    "stack layout for every host (default all)",
                    [&](const std::string& v) {
                      if (v == "pin") {
                        row.config = code::StackConfig::Pin();
                      } else if (v == "all") {
                        row.config = code::StackConfig::All();
                      } else {
                        return false;
                      }
                      return true;
                    });
  parser.add_option("keepalive", "IDLE_US",
                    "arm keepalive probing (interval = IDLE_US/2, 2 probes; "
                    "recovery rows)",
                    [&](const std::string& v) {
                      std::uint64_t& idle = recovery.keepalive_idle_us;
                      if (!harness::parse_unsigned(v, &idle) || idle == 0) {
                        return false;
                      }
                      recovery.keepalive_intvl_us = idle / 2;
                      recovery.keepalive_probes = 2;
                      return true;
                    });
  parser.add_option("syn-retries", "N",
                    "bound the reconnect storm's SYN retransmissions "
                    "(recovery rows)",
                    &recovery.max_syn_rexmts);
  parser.add_option("burst", "N", "packets per scheduled flow draw (>0)",
                    [&](const std::string& v) {
                      return harness::parse_unsigned(v, &row.batch) &&
                             row.batch > 0;
                    });
  parser.add_option("cores", "N", "simulated cores to shard across (>0)",
                    [&](const std::string& v) {
                      return harness::parse_unsigned(v, &shard.cores) &&
                             shard.cores > 0;
                    });
  parser.add_option("steering", "hash|least",
                    "flow->core steering policy (sharded runs)",
                    [&](const std::string& v) {
                      try {
                        shard.steering =
                            harness::steering_policy_from_string(v);
                      } catch (const std::invalid_argument&) {
                        return false;
                      }
                      return true;
                    });
  parser.add_option("arrival-us", "X",
                    "open-loop arrival spacing for the queueing view "
                    "(sharded runs; 0 = closed loop)",
                    &shard.arrival_us);
  parser.add_option("rules", "N",
                    "decoy classifier paths on the server; measured "
                    "flow-cache costs (default 0 = analytic)",
                    &row.rules);
  parser.add_option("rule-seed", "N", "rule-generator seed (default 1)",
                    &row.rule_seed);
  harness::CommonCliArgs common;
  common.add_to(parser);
  parser.add_positional("stack", "tcp|rpc (default tcp)",
                        [&](const std::string& v) {
                          if (v == "rpc") {
                            row.kind = net::StackKind::kRpc;
                            return true;
                          }
                          return v == "tcp";
                        });
  parser.add_positional("scheme", "one-behind|direct|lru (default lru)",
                        [&](const std::string& v) {
                          const auto s = code::flow_cache_scheme_from_string(v);
                          if (!s) return false;
                          row.scheme = *s;
                          return true;
                        });
  parser.add_positional("connections", "fleet population (default 8)",
                        [&](const std::string& v) {
                          return harness::parse_unsigned(v, &row.connections) &&
                                 row.connections > 0;
                        });
  parser.add_positional("packets", "scheduled packets (default 128)",
                        [&](const std::string& v) {
                          return harness::parse_unsigned(v, &row.packets) &&
                                 row.packets > 0;
                        });
  parser.add_positional("zipf_s", "Zipf exponent (default 1.1)", &row.zipf_s);
  parser.add_positional("seed", "schedule seed (default 1)", &row.seed);
  parser.add_positional("capacity",
                        "flow-cache capacity (default 8; the LB's conn "
                        "track: 1024)",
                        [&](const std::string& v) {
                          return harness::parse_unsigned(
                                     v, &row.cache_capacity) &&
                                 row.cache_capacity > 0;
                        });
  parser.add_positional("churn_every",
                        "churn flow 0 every N packets (default 0 = never)",
                        &row.churn_every);
  if (!parser.parse(argc, argv)) return parser.help_shown() ? 0 : 2;

  const RowKind kind = lb_backends > 0          ? kLbRow
                       : parser.given("script") ? kRecoveryRow
                                                : kFleetRow;
  for (const KindOnly& k : kKindOnly) {
    if (parser.given(k.name) && (k.kinds & kind) == 0) {
      std::fprintf(stderr, "fleet: %s%s%s does not apply to %s\n",
                   k.positional ? "<" : "--", k.name, k.positional ? ">" : "",
                   kind_name(kind));
      return 2;
    }
  }
  if (kind != kFleetRow && row.kind == net::StackKind::kRpc) {
    std::fprintf(stderr, "fleet: <stack> rpc does not apply to %s\n",
                 kind_name(kind));
    return 2;
  }
  net::ChaosTimeline chaos;
  try {
    chaos = net::ChaosTimeline::parse(script);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "fleet: %s\n\n%s", e.what(), parser.help().c_str());
    return 2;
  }
  if (kind != kFleetRow) {
    const std::string error = harness::script_error(chaos, lb_backends);
    if (!error.empty()) {
      std::fprintf(stderr, "fleet: %s\n", error.c_str());
      return 2;
    }
  }

  if (kind == kLbRow) {
    harness::LbSpec lb;
    const std::size_t track_capacity = lb.fleet.cache_capacity;
    lb.fleet = row;
    if (!parser.given("capacity")) lb.fleet.cache_capacity = track_capacity;
    lb.fleet.label = row.config.name + "/" + code::to_string(row.scheme) +
                     "/b" + std::to_string(lb_backends);
    lb.backends = lb_backends;
    lb.chaos = chaos;
    const harness::BurstCostTable costs =
        harness::measure_lb_costs(row.config, row.params);
    return run_row(
        lb, costs, common,
        [](const harness::Outcome& o) {
          return harness::lb_error(o.lb.front());
        },
        [&](const harness::Outcome& o) { print_lb(lb, costs, o.lb.front()); });
  }

  // Positions converge within a few packets; 8 table entries cover any
  // batch size (fast_at/slow_at clamp to the steady-amortized floor).
  const harness::BurstCostTable costs = harness::measure_burst_costs(
      row.kind, row.config, std::min<std::size_t>(row.batch, 8));

  if (kind == kRecoveryRow) {
    recovery.fleet = row;
    recovery.fleet.label = std::string("chaos/") + code::to_string(row.scheme);
    recovery.chaos = chaos;
    return run_row(
        recovery, costs, common,
        [](const harness::Outcome& o) {
          return harness::recovery_error(o.recovery.front());
        },
        [&](const harness::Outcome& o) {
          print_recovery(recovery, o.recovery.front());
        });
  }

  row.label = std::string(row.kind == net::StackKind::kRpc ? "rpc" : "tcp") +
              "/" + code::to_string(row.scheme);
  if (row.rules > 0) {
    harness::ClassifierCostSpec cs;
    cs.kind = row.kind;
    cs.cfg = row.config;
    cs.rules = row.rules;
    cs.rule_seed = row.rule_seed;
    const harness::ClassifierCostMeasurement m =
        harness::measure_classifier_costs(cs);
    row.cache_costs = m.costs;
    std::fprintf(stderr,
                 "fleet: measured classifier costs for %zu rules "
                 "(%zu tuples, %s engine): hit=%.3fus probe=%.3fus "
                 "per_rule=%.4fus\n",
                 row.rules, m.num_tuples,
                 m.tuple_engine ? "tuple" : "linear", m.costs.hit_us,
                 m.costs.probe_us, m.costs.per_rule_us);
  }

  if (shard.cores == 1 && shard.arrival_us == 0) {
    return run_row(
        row, costs, common,
        [](const harness::Outcome& o) {
          return harness::conservation_error(o.fleet.front());
        },
        [&](const harness::Outcome& o) {
          print_fleet(row, costs, o.fleet.front());
        });
  }
  shard.fleet = row;
  return run_row(
      shard, costs, common,
      [](const harness::Outcome& o) {
        return o.shard.front().conserved
                   ? std::string()
                   : "shard invariants broken in row '" +
                         o.shard.front().spec.fleet.label + "'";
      },
      [&](const harness::Outcome& o) { print_shard(shard, o.shard.front()); });
}
