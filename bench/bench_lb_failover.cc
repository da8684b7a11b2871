// bench_lb_failover: priced load-balancer failover under scripted backend
// failures.
//
// bench_recovery_latency prices what a disruption costs an *endpoint*;
// this bench prices what it costs the *forwarding tier*: a client fleet
// steered across a backend pool by Maglev consistent hashing while the
// script drains a backend (administrative, hitless) or crashes one
// (detected by health probes, established flows remapped).  Each row runs
// quiet / drain / crash per pool size under the pinned layout.
//
// Outputs:
//  * bench/out/lb_failover.json — l96.lb.v2 rows (the fleet row prefix,
//    then the LB keys, then the results).  A pure function of the seeds:
//    byte-identical across runs and across runner worker counts
//    (re-verified in-process below).
//
// Exit status enforces:
//  * packet conservation on every row (harness::conservation_error);
//  * Maglev's disruption bound: every rebuild that removes or restores
//    one backend of n remaps ~1/n of the table (within 0.5/n + 2%);
//  * a drain is hitless: zero lost packets, zero reconnects, zero stale
//    rebinds — established flows never notice;
//  * a crash loses only bounded established-flow packets (counted, and
//    at most 4 per connection), steers away within the health-detection
//    budget, and restores after the reboot;
//  * the crash row's p999 exceeds the quiet row's p999 at the same pool
//    size (the stale-rebind slow path prices real work into the tail);
//  * the whole grid is byte-identical when re-run under a different
//    worker count.
//
//   bench_lb_failover [packets-per-row] [out-dir]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "harness/tables.h"

using namespace l96;

namespace {

struct Scenario {
  const char* name;
  const char* script;  // relative to the post-establishment reset point
  bool crash;
};

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t packets = 160;
  std::string out_dir = "bench/out";
  if (argc > 1) packets = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) out_dir = argv[2];
  if (packets == 0) {
    std::fprintf(stderr, "usage: bench_lb_failover [packets>0] [out-dir]\n");
    return 2;
  }

  const Scenario scenarios[] = {
      {"quiet", "", false},
      {"drain", "drain@20000:backend1 undrain@220000:backend1", false},
      {"crash", "crash@20000:backend0 reboot@320000:backend0", true},
  };
  const std::size_t pools[] = {4, 8};

  harness::LbRunSpec rs;
  for (const std::size_t n : pools) {
    for (const Scenario& sc : scenarios) {
      harness::LbSpec spec;
      spec.fleet.config = code::StackConfig::Pin();
      spec.backends = n;
      spec.fleet.connections = 8;
      spec.fleet.packets = packets;
      spec.fleet.batch = 1;
      spec.fleet.zipf_s = 1.1;
      spec.fleet.seed = 42;
      if (sc.script[0] != '\0') {
        spec.chaos = net::ChaosTimeline::parse(sc.script);
      }
      char label[64];
      std::snprintf(label, sizeof(label), "pin/b%zu/%s", n, sc.name);
      spec.fleet.label = label;
      rs.rows.push_back(std::move(spec));
    }
  }
  rs.costs = harness::measure_lb_costs(code::StackConfig::Pin());
  rs.common.workers = 3;
  rs.common.out_path =
      (std::filesystem::path(out_dir) / "lb_failover.json").string();

  const harness::Outcome o = harness::run(rs);
  const std::vector<harness::LbResult>& rows = o.lb;
  std::printf("wrote %s\n", o.out_path.c_str());

  harness::Table t("LB failover under scripted backend failures (" +
                   std::to_string(packets) +
                   " packets/row, 8 conns, zipf 1.1, pinned layout)");
  t.columns({"row", "lost", "reconn", "slow", "tta [us]", "ttr [us]",
             "steady p999", "disrupted p999"});
  for (const auto& r : rows) {
    double tta = 0, ttr = 0;
    for (const auto& w : r.windows) {
      tta = std::max(tta, w.tta_us);
      ttr = std::max(ttr, w.ttr_us);
    }
    t.row({r.spec.fleet.label, std::to_string(r.fleet.lost_packets),
           std::to_string(r.fleet.reconnects), std::to_string(r.slow_forwards),
           harness::fmt(tta, 1), harness::fmt(ttr, 1),
           harness::fmt(r.steady.p999, 1), harness::fmt(r.disrupted.p999, 1)});
  }
  t.print();

  int failures = 0;
  const auto find = [&](const std::string& label) {
    for (const auto& r : rows) {
      if (r.spec.fleet.label == label) return &r;
    }
    return static_cast<const harness::LbResult*>(nullptr);
  };

  // --- conservation and the Maglev disruption bound ------------------------
  for (const auto& r : rows) {
    if (const std::string violation = harness::conservation_error(r.fleet);
        !violation.empty()) {
      std::fprintf(stderr, "FAIL: %s\n", violation.c_str());
      ++failures;
    }
    for (const net::LbRebuild& rb : r.rebuilds) {
      // A removal leaves pool_size alive out of pool_size + 1; a restore
      // brings the pool to pool_size.  Either way one backend of n moved,
      // so ~1/n of the table must change owner — Maglev's disruption
      // bound keeps the excess small.
      const bool removal = rb.cause == net::LbRebuildCause::kDrain ||
                           rb.cause == net::LbRebuildCause::kHealthDown;
      const std::size_t n = removal ? rb.pool_size + 1 : rb.pool_size;
      const double f = static_cast<double>(rb.remapped) /
                       static_cast<double>(r.spec.maglev_table_size);
      const double want = 1.0 / static_cast<double>(n);
      if (std::fabs(f - want) > 0.5 * want + 0.02) {
        std::fprintf(stderr,
                     "FAIL: %s rebuild (%s backend%u) remapped %.3f of the "
                     "table, expected ~%.3f\n",
                     r.spec.fleet.label.c_str(), net::to_string(rb.cause),
                     rb.backend, f, want);
        ++failures;
      }
    }
  }

  // --- drain is hitless, crash is bounded ----------------------------------
  for (const std::size_t n : pools) {
    const auto* quiet = find("pin/b" + std::to_string(n) + "/quiet");
    const auto* drain = find("pin/b" + std::to_string(n) + "/drain");
    const auto* crash = find("pin/b" + std::to_string(n) + "/crash");
    if (quiet == nullptr || drain == nullptr || crash == nullptr) {
      std::fprintf(stderr, "FAIL: b%zu rows missing\n", n);
      ++failures;
      continue;
    }

    if (quiet->fleet.lost_packets != 0 || !quiet->rebuilds.empty() ||
        quiet->slow_forwards != 0) {
      std::fprintf(stderr, "FAIL: %s quiet row disrupted itself\n",
                   quiet->spec.fleet.label.c_str());
      ++failures;
    }
    if (drain->fleet.lost_packets != 0 || drain->fleet.reconnects != 0 ||
        drain->slow_forwards != 0 || drain->fleet.cache.stale_hits != 0) {
      std::fprintf(stderr,
                   "FAIL: %s drain not hitless (lost=%llu reconn=%llu "
                   "slow=%llu stale=%llu)\n",
                   drain->spec.fleet.label.c_str(),
                   static_cast<unsigned long long>(drain->fleet.lost_packets),
                   static_cast<unsigned long long>(drain->fleet.reconnects),
                   static_cast<unsigned long long>(drain->slow_forwards),
                   static_cast<unsigned long long>(
                       drain->fleet.cache.stale_hits));
      ++failures;
    }
    for (const auto& w : drain->windows) {
      if (!w.steered_away || w.tta_us != 0.0 || !w.restored) {
        std::fprintf(stderr, "FAIL: %s drain window not hitless-steered\n",
                     drain->spec.fleet.label.c_str());
        ++failures;
      }
    }

    if (crash->fleet.lost_packets > 4 * crash->spec.fleet.connections) {
      std::fprintf(stderr, "FAIL: %s crash lost %llu packets (> 4/conn)\n",
                   crash->spec.fleet.label.c_str(),
                   static_cast<unsigned long long>(crash->fleet.lost_packets));
      ++failures;
    }
    const net::LbHealthParams& h = crash->spec.health;
    const double detect_budget =
        static_cast<double>((h.fail_threshold + 2) * h.interval_us);
    for (const auto& w : crash->windows) {
      if (!w.steered_away || w.tta_us < 0 || w.tta_us > detect_budget) {
        std::fprintf(stderr,
                     "FAIL: %s crash steer-away %.1f us outside the "
                     "detection budget %.1f us\n",
                     crash->spec.fleet.label.c_str(), w.tta_us, detect_budget);
        ++failures;
      }
      if (!w.restored) {
        std::fprintf(stderr, "FAIL: %s crash window never restored\n",
                     crash->spec.fleet.label.c_str());
        ++failures;
      }
    }

    // The stale-rebind slow path prices real work into the tail.
    if (!(crash->fleet.latency.p999 > quiet->fleet.latency.p999)) {
      std::fprintf(stderr,
                   "FAIL: %s p999 %.2f us not above the quiet row's "
                   "%.2f us — the failover priced nothing\n",
                   crash->spec.fleet.label.c_str(), crash->fleet.latency.p999,
                   quiet->fleet.latency.p999);
      ++failures;
    }
  }

  // --- determinism across runner worker counts -----------------------------
  {
    harness::LbRunSpec serial = rs;
    serial.common.workers = 1;
    serial.common.out_path.clear();
    const harness::Outcome o2 = harness::run(serial);
    if (o2.section.dump() != o.section.dump()) {
      std::fprintf(stderr,
                   "FAIL: grid is not byte-identical across runner worker "
                   "counts (3 vs 1)\n");
      ++failures;
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (o2.lb[i].fleet.sample_digest != rows[i].fleet.sample_digest) {
        std::fprintf(stderr, "FAIL: %s digest differs across worker counts\n",
                     rows[i].spec.fleet.label.c_str());
        ++failures;
      }
    }
  }

  return failures == 0 ? 0 : 1;
}
