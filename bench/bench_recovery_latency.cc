// bench_recovery_latency: priced recovery latency under scripted failures.
//
// The steady-state fleet rows answer "what does demultiplexing cost"; this
// bench asks what a disruption costs: a hard link blackout (the wire
// blackholes every frame for 100 ms) and a server crash/reboot cycle (all
// protocol state dies; the new incarnation RSTs stale connections and the
// fleet reconnects).  Each scenario runs per cache scheme x stack layout;
// the report splits per-packet latency into steady vs recovery phases and
// measures every window's time-to-recover (first completed delivery after
// the window closes).
//
// Outputs:
//  * bench/out/recovery_latency.json — l96.recovery.v1 rows.  A pure
//    function of the seeds: byte-identical across runs and across
//    runner worker counts (re-verified in-process below).
//
// Exit status enforces:
//  * packet conservation on every row (harness::conservation_error);
//  * zero priced deliveries inside every blackout / crash window (the
//    dead medium and the dead host deliver nothing);
//  * every window recovers, with finite ttr, and the whole grid is
//    byte-identical when re-run under a different worker count;
//  * LRU crash rows show recovery p999 > steady p999 (the reconnect storm
//    and the flushed flow cache price real work into the tail; one-behind
//    already pays the miss path in steady state, so the contrast is
//    asserted for the scheme that holds the working set);
//  * true LRU recovers no slower than one-behind on every scenario.
//
// A chaos-free recovery row is the fleet engine by construction (one
// engine, an empty disruption); tests/test_recovery.cc pins it.
//
//   bench_recovery_latency [packets-per-row] [out-dir]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
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
    std::fprintf(stderr,
                 "usage: bench_recovery_latency [packets>0] [out-dir]\n");
    return 2;
  }

  const Scenario scenarios[] = {
      {"blackout", "link_down@20000 link_up@120000", false},
      {"crash", "crash@20000:server reboot@220000:server", true},
  };
  const code::FlowCacheScheme schemes[] = {code::FlowCacheScheme::kOneBehind,
                                           code::FlowCacheScheme::kLru};
  const code::StackConfig layouts[] = {code::StackConfig::Pin(),
                                       code::StackConfig::All()};

  std::vector<harness::RecoverySpec> specs;
  for (const code::StackConfig& cfg : layouts) {
    for (auto scheme : schemes) {
      for (const Scenario& sc : scenarios) {
        harness::RecoverySpec spec;
        spec.fleet.kind = net::StackKind::kTcpIp;
        spec.fleet.config = cfg;
        spec.fleet.scheme = scheme;
        spec.fleet.connections = 8;
        spec.fleet.packets = packets;
        spec.fleet.batch = 1;
        spec.fleet.zipf_s = 1.1;
        spec.fleet.seed = 42;
        spec.fleet.cache_capacity = 8;
        spec.chaos = net::ChaosTimeline::parse(sc.script);
        if (sc.crash) {
          // Reap half-open remnants fast enough that a silent client
          // (fully ACKed, waiting on a delivery that died with the server)
          // notices the crash and reconnects.
          spec.keepalive_idle_us = 50'000;
          spec.keepalive_intvl_us = 25'000;
          spec.keepalive_probes = 2;
        }
        char label[96];
        std::snprintf(label, sizeof(label), "%s/%s/%s", cfg.name.c_str(),
                      code::to_string(scheme), sc.name);
        spec.fleet.label = label;
        specs.push_back(std::move(spec));
      }
    }
  }

  // Layouts carry different costs: measure one table per layout and run
  // each layout's slice under its own table.
  std::vector<harness::BurstCostTable> tables;
  for (const code::StackConfig& cfg : layouts) {
    tables.push_back(
        harness::measure_burst_costs(net::StackKind::kTcpIp, cfg, 1));
  }
  const auto run_grid = [&](unsigned workers) {
    std::vector<harness::RecoveryResult> grid;
    for (std::size_t li = 0; li < std::size(layouts); ++li) {
      harness::RecoveryRunSpec rs;
      rs.common.workers = workers;
      rs.costs = tables[li];
      for (const auto& s : specs) {
        if (s.fleet.config.name == layouts[li].name) rs.rows.push_back(s);
      }
      const std::vector<harness::RecoveryResult> part =
          harness::run(rs).recovery;
      grid.insert(grid.end(), part.begin(), part.end());
    }
    return grid;
  };
  const std::vector<harness::RecoveryResult> rows = run_grid(0);

  harness::Table t("Recovery latency under scripted failures (" +
                   std::to_string(packets) +
                   " packets/row, 8 conns, capacity 8, zipf 1.1)");
  t.columns({"row", "lost", "reconn", "ttr [us]", "steady p99", "steady p999",
             "recov p99", "recov p999"});
  for (const auto& r : rows) {
    double ttr = 0;
    for (const auto& w : r.windows) ttr = std::max(ttr, w.ttr_us);
    t.row({r.fleet.spec.label, std::to_string(r.fleet.lost_packets),
           std::to_string(r.fleet.reconnects), harness::fmt(ttr, 1),
           harness::fmt(r.steady.p99, 1), harness::fmt(r.steady.p999, 1),
           harness::fmt(r.recovery.p99, 1), harness::fmt(r.recovery.p999, 1)});
  }
  t.print();

  const std::filesystem::path out_path =
      std::filesystem::path(out_dir) / "recovery_latency.json";
  const harness::Json grid = harness::recovery_json(tables[0], rows);
  const std::string grid_dump = grid.dump();
  harness::write_json_file(out_path, grid);
  std::printf("wrote %s\n", out_path.string().c_str());

  int failures = 0;

  // --- windows: dark during, recovered after, deterministic ----------------
  for (const auto& r : rows) {
    if (const std::string violation = harness::conservation_error(r.fleet);
        !violation.empty()) {
      std::fprintf(stderr, "FAIL: %s\n", violation.c_str());
      ++failures;
    }
    for (const auto& w : r.windows) {
      if (w.samples_in_window != 0) {
        std::fprintf(stderr,
                     "FAIL: %s priced %llu deliveries inside a %s window\n",
                     r.fleet.spec.label.c_str(),
                     static_cast<unsigned long long>(w.samples_in_window),
                     w.window.crash ? "crash" : "blackout");
        ++failures;
      }
      if (!w.recovered || !(w.ttr_us >= 0) || !std::isfinite(w.ttr_us)) {
        std::fprintf(stderr, "FAIL: %s window never recovered (ttr=%.1f)\n",
                     r.fleet.spec.label.c_str(), w.ttr_us);
        ++failures;
      }
    }
  }

  // Determinism across worker counts: the whole grid re-run single-threaded
  // must dump byte-identically.
  if (harness::recovery_json(tables[0], run_grid(1)).dump() != grid_dump) {
    std::fprintf(stderr,
                 "FAIL: grid is not byte-identical across runner worker "
                 "counts (%u vs 1)\n",
                 harness::resolve_workers(0));
    ++failures;
  }

  // --- orderings -----------------------------------------------------------
  // One-behind thrashes on the 8-flow interleave even in steady state (its
  // steady p999 IS the full-classifier miss path), so the steady/recovery
  // contrast is asserted for the scheme that actually holds the working
  // set: LRU's steady phase is all warm hits, and the crash must price the
  // flushed cache and the reconnect storm strictly above it.
  for (const auto& r : rows) {
    const bool crash_row =
        r.fleet.spec.label.find("/crash") != std::string::npos;
    const bool lru_row =
        r.fleet.spec.label.find("/lru/") != std::string::npos;
    if (crash_row && lru_row && !(r.recovery.p999 > r.steady.p999)) {
      std::fprintf(stderr,
                   "FAIL: %s recovery p999 %.2f us not above steady p999 "
                   "%.2f us — the reconnect storm priced nothing\n",
                   r.fleet.spec.label.c_str(), r.recovery.p999,
                   r.steady.p999);
      ++failures;
    }
  }
  // True LRU must recover no slower than one-behind on every scenario
  // (time-to-recover is wire/timer-driven; a better cache must not hurt).
  for (const code::StackConfig& cfg : layouts) {
    for (const Scenario& sc : scenarios) {
      const auto find = [&](code::FlowCacheScheme scheme) {
        char label[96];
        std::snprintf(label, sizeof(label), "%s/%s/%s", cfg.name.c_str(),
                      code::to_string(scheme), sc.name);
        for (const auto& r : rows) {
          if (r.fleet.spec.label == label) return &r;
        }
        return static_cast<const harness::RecoveryResult*>(nullptr);
      };
      const auto* ob = find(code::FlowCacheScheme::kOneBehind);
      const auto* lru = find(code::FlowCacheScheme::kLru);
      if (ob == nullptr || lru == nullptr) continue;
      double ttr_ob = 0, ttr_lru = 0;
      for (const auto& w : ob->windows) ttr_ob = std::max(ttr_ob, w.ttr_us);
      for (const auto& w : lru->windows) {
        ttr_lru = std::max(ttr_lru, w.ttr_us);
      }
      if (ttr_lru > ttr_ob + 1e-9) {
        std::fprintf(stderr,
                     "FAIL: %s/%s LRU ttr %.1f us slower than one-behind "
                     "%.1f us\n",
                     cfg.name.c_str(), sc.name, ttr_lru, ttr_ob);
        ++failures;
      }
    }
  }

  return failures == 0 ? 0 : 1;
}
