// Chaos CLI: run one fleet row through a scripted failure timeline and
// print the recovery report.
//
//   chaos [--script "S"] [--keepalive IDLE_US] [--syn-retries N]
//         [--seed N] [--workers N] [--out FILE]
//         [scheme] [connections] [packets] [zipf_s] [seed] [capacity]
//
// `S` is a whitespace-separated chaos script, e.g.
//   "link_down@2000 link_up@52000 crash@150000:server reboot@250000:server"
// (times are virtual microseconds relative to the post-establishment reset
// point).  `scheme` is one-behind | direct | lru.  --keepalive arms client
// and server keepalive probing (interval = IDLE_US / 2, 2 probes);
// --syn-retries bounds the reconnect storm's SYN retransmissions.
// --out writes the l96.recovery.v1 section to FILE.
//
// Exit status: 0 on success, 1 when a recovery invariant fails (packet
// conservation, deliveries inside a blackout/crash window, an unrecovered
// window), 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "harness/argparse.h"
#include "harness/runner.h"

int main(int argc, char** argv) {
  using namespace l96;

  harness::RecoverySpec spec;
  spec.fleet.kind = net::StackKind::kTcpIp;
  spec.fleet.config = code::StackConfig::All();
  spec.fleet.scheme = code::FlowCacheScheme::kLru;
  spec.fleet.connections = 8;
  spec.fleet.packets = 128;
  spec.fleet.batch = 1;
  spec.fleet.zipf_s = 1.1;
  spec.fleet.seed = 1;
  spec.fleet.cache_capacity = 8;
  std::string script =
      "link_down@2000 link_up@52000 crash@150000:server reboot@250000:server";

  harness::ArgParser parser(
      "chaos", "run one fleet row through a scripted failure timeline and "
               "print the recovery report");
  std::uint64_t seed = 1;
  unsigned workers = 0;
  std::string out_path;
  parser.add_option("script", "S", "whitespace-separated chaos timeline",
                    &script);
  parser.add_option("keepalive", "IDLE_US",
                    "arm keepalive probing (interval = IDLE_US/2, 2 probes)",
                    [&](const std::string& v) {
                      spec.keepalive_idle_us =
                          std::strtoull(v.c_str(), nullptr, 10);
                      if (spec.keepalive_idle_us == 0) return false;
                      spec.keepalive_intvl_us = spec.keepalive_idle_us / 2;
                      spec.keepalive_probes = 2;
                      return true;
                    });
  parser.add_option("syn-retries", "N",
                    "bound the reconnect storm's SYN retransmissions",
                    [&](const std::string& v) {
                      spec.max_syn_rexmts = static_cast<std::uint32_t>(
                          std::strtoul(v.c_str(), nullptr, 10));
                      return true;
                    });
  parser.add_option("seed", "N", "deterministic schedule seed", &seed);
  parser.add_option("workers", "N",
                    "worker threads (0 = hardware concurrency)", &workers);
  parser.add_option("out", "FILE",
                    "write the l96.recovery.v1 section to FILE", &out_path);
  parser.add_positional("scheme", "one-behind|direct|lru (default lru)",
                        [&](const std::string& v) {
                          const auto s = code::flow_cache_scheme_from_string(v);
                          if (!s) return false;
                          spec.fleet.scheme = *s;
                          return true;
                        });
  parser.add_positional("connections", "fleet population (default 8)",
                        [&](const std::string& v) {
                          spec.fleet.connections =
                              std::strtoull(v.c_str(), nullptr, 10);
                          return spec.fleet.connections > 0;
                        });
  parser.add_positional("packets", "scheduled packets (default 128)",
                        [&](const std::string& v) {
                          spec.fleet.packets =
                              std::strtoull(v.c_str(), nullptr, 10);
                          return spec.fleet.packets > 0;
                        });
  parser.add_positional("zipf_s", "Zipf exponent (default 1.1)",
                        [&](const std::string& v) {
                          spec.fleet.zipf_s = std::strtod(v.c_str(), nullptr);
                          return true;
                        });
  parser.add_positional("seed", "schedule seed (default 1)",
                        [&](const std::string& v) {
                          seed = std::strtoull(v.c_str(), nullptr, 10);
                          return true;
                        });
  parser.add_positional("capacity", "flow-cache capacity (default 8)",
                        [&](const std::string& v) {
                          spec.fleet.cache_capacity =
                              std::strtoull(v.c_str(), nullptr, 10);
                          return spec.fleet.cache_capacity > 0;
                        });
  if (!parser.parse(argc, argv)) return parser.help_shown() ? 0 : 2;
  spec.fleet.seed = seed;
  spec.fleet.label = std::string("chaos/") + code::to_string(spec.fleet.scheme);

  try {
    spec.chaos = net::ChaosTimeline::parse(script);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "chaos: %s\n\n%s", e.what(), parser.help().c_str());
    return 2;
  }

  const harness::BurstCostTable costs =
      harness::measure_burst_costs(spec.fleet.kind, spec.fleet.config, 1);
  harness::RecoveryRunSpec rs;
  rs.common.workers = workers;
  rs.common.out_path = out_path;
  rs.rows = {spec};
  rs.costs = costs;
  harness::Outcome o;
  try {
    o = harness::run(rs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos: %s\n", e.what());
    return 1;
  }
  const harness::RecoveryResult& r = o.recovery.front();

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

  // Exit-enforced invariants.
  int rc = 0;
  if (const std::string violation = harness::conservation_error(r.fleet);
      !violation.empty()) {
    std::fprintf(stderr, "chaos: %s\n", violation.c_str());
    rc = 1;
  }
  for (const harness::RecoveryWindow& w : r.windows) {
    if (w.samples_in_window != 0) {
      std::fprintf(stderr,
                   "chaos: %llu deliveries inside a disruption window\n",
                   static_cast<unsigned long long>(w.samples_in_window));
      rc = 1;
    }
    if (!w.recovered || w.ttr_us < 0) {
      std::fprintf(stderr, "chaos: window never recovered\n");
      rc = 1;
    }
  }
  return rc;
}
