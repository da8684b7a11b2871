// LB CLI: run one load-balancer failover row through a scripted backend
// failure timeline and print the steering report.
//
//   lb [--script "S"] [--config pin|all] [--scheme NAME] [--capacity N]
//      [--seed N] [--workers N] [--out FILE]
//      [backends] [connections] [packets] [zipf_s] [seed]
//
// `S` is a whitespace-separated chaos script with backend targets, e.g.
//   "drain@20000:backend1 undrain@120000:backend1
//    crash@200000:backend0 reboot@400000:backend0"
// (times are virtual microseconds relative to the post-establishment
// reset point).  The config must carry path inlining — the stale-rebind
// slow path is what failover prices — so only pin and all are offered.
// --out writes the l96.lb.v2 section to FILE: the fleet row prefix, then
// the LB keys, then the results.
//
// Exit status: 0 on success, 1 when a failover invariant fails (packet
// conservation, a drain window losing established-flow packets, a window
// never steered away from or never restored), 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "harness/argparse.h"
#include "harness/runner.h"

int main(int argc, char** argv) {
  using namespace l96;

  harness::LbSpec spec;
  harness::FleetSpec& row = spec.fleet;
  row.config = code::StackConfig::Pin();
  spec.backends = 4;
  row.connections = 8;
  row.packets = 256;
  row.batch = 1;
  row.zipf_s = 1.1;
  row.seed = 1;
  std::string script =
      "drain@20000:backend1 undrain@120000:backend1 "
      "crash@200000:backend0 reboot@400000:backend0";

  harness::ArgParser parser(
      "lb", "run one load-balancer failover row through a scripted backend "
            "failure timeline and print the steering report");
  std::uint64_t seed = 1;
  unsigned workers = 0;
  std::string out_path;
  parser.add_option("script", "S",
                    "whitespace-separated backend chaos timeline", &script);
  parser.add_option("config", "pin|all",
                    "stack layout for all three tiers (default pin)",
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
  parser.add_option("scheme", "NAME", "conn-track scheme (default lru)",
                    [&](const std::string& v) {
                      const auto s = code::flow_cache_scheme_from_string(v);
                      if (!s) return false;
                      row.scheme = *s;
                      return true;
                    });
  parser.add_option("capacity", "N", "conn-track capacity (default 1024)",
                    [&](const std::string& v) {
                      row.cache_capacity =
                          std::strtoull(v.c_str(), nullptr, 10);
                      return row.cache_capacity > 0;
                    });
  parser.add_option("seed", "N", "deterministic schedule seed", &seed);
  parser.add_option("workers", "N",
                    "worker threads (0 = hardware concurrency)", &workers);
  parser.add_option("out", "FILE", "write the l96.lb.v2 section to FILE",
                    &out_path);
  parser.add_positional("backends", "backend pool size (default 4)",
                        [&](const std::string& v) {
                          spec.backends = std::strtoull(v.c_str(), nullptr, 10);
                          return spec.backends > 0;
                        });
  parser.add_positional("connections", "client fleet size (default 8)",
                        [&](const std::string& v) {
                          row.connections =
                              std::strtoull(v.c_str(), nullptr, 10);
                          return row.connections > 0;
                        });
  parser.add_positional("packets", "scheduled packets (default 256)",
                        [&](const std::string& v) {
                          row.packets = std::strtoull(v.c_str(), nullptr, 10);
                          return row.packets > 0;
                        });
  parser.add_positional("zipf_s", "Zipf exponent (default 1.1)",
                        [&](const std::string& v) {
                          row.zipf_s = std::strtod(v.c_str(), nullptr);
                          return true;
                        });
  parser.add_positional("seed", "schedule seed (default 1)",
                        [&](const std::string& v) {
                          seed = std::strtoull(v.c_str(), nullptr, 10);
                          return true;
                        });
  if (!parser.parse(argc, argv)) return parser.help_shown() ? 0 : 2;
  row.seed = seed;
  row.label = row.config.name + "/" + code::to_string(row.scheme) + "/b" +
              std::to_string(spec.backends);

  try {
    spec.chaos = net::ChaosTimeline::parse(script);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "lb: %s\n\n%s", e.what(), parser.help().c_str());
    return 2;
  }

  const harness::BurstCostTable costs =
      harness::measure_lb_costs(row.config, row.params);
  harness::LbRunSpec rs;
  rs.common.workers = workers;
  rs.common.out_path = out_path;
  rs.rows = {spec};
  rs.costs = costs;
  harness::Outcome o;
  try {
    o = harness::run(rs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lb: %s\n", e.what());
    return 1;
  }
  const harness::LbResult& r = o.lb.front();

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

  // Exit-enforced invariants.
  int rc = 0;
  if (const std::string violation = harness::conservation_error(r.fleet);
      !violation.empty()) {
    std::fprintf(stderr, "lb: %s\n", violation.c_str());
    rc = 1;
  }
  bool any_crash = false;
  for (const harness::LbSteer& w : r.windows) any_crash |= w.window.crash;
  if (!any_crash && !r.windows.empty() && r.fleet.lost_packets != 0) {
    std::fprintf(stderr, "lb: a crash-free script lost %llu packets\n",
                 static_cast<unsigned long long>(r.fleet.lost_packets));
    rc = 1;
  }
  for (const harness::LbSteer& w : r.windows) {
    if (!w.steered_away) {
      std::fprintf(stderr, "lb: window never steered away\n");
      rc = 1;
    }
    if (!w.restored) {
      std::fprintf(stderr, "lb: window never restored\n");
      rc = 1;
    }
  }
  return rc;
}
