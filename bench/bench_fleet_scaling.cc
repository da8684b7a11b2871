// bench_fleet_scaling: flow-cache schemes under a multi-connection fleet.
//
// The paper's classifier guard is priced per packet; Jain (DEC-TR-592)
// shows that with many flows the classification cost hinges on the
// locality cache in front of the rule scan.  This bench sweeps the three
// cache schemes (one-behind / direct-mapped / true LRU) over a grid of
// connection counts x Zipf popularity skews x burst sizes, with periodic
// connection churn so stale hits (and their slow-path fallback replays)
// appear in the latency tail.  Burst rows (batch 16) coalesce packets per
// flow draw and price positions > 0 from the position-indexed cost table
// (cross-packet cache carryover); batch-1 rows reproduce the pre-burst
// engine byte for byte.
//
// Outputs:
//  * bench/out/fleet_scaling.json — l96.sweep.v1 rows (one per scheme,
//    sharing a single ALL/ALL trace capture) each carrying an l96.fleet.v2
//    section with that scheme's grid rows.
//  * bench/out/fleet_summary.json — the same l96.fleet.v2 data standalone.
//    A pure function of the seeds: byte-identical across runs and across
//    runner worker counts (verify with sha256sum).
//  * bench/out/shard_summary.json — l96.shard.v1 rows from the sharded
//    multi-core grid (harness/shard.h): the scaling chain (4096 flows,
//    1/4/16/64 cores, hash vs least-loaded steering, uniform vs Zipf 1.2),
//    open-loop rows whose arrival rate is derived from the 1-core closed
//    row (0.75 utilization per core under uniform spread — the Zipf-hot
//    flow pins its core past saturation, the nanoPU head-of-line
//    scenario), and jumbo rows at [jumbo-connections] (default 100000, up
//    to 1M) flows on 4/16/64 cores.  Byte-identical across runs and
//    runner worker counts.
//
// Exit status enforces the Jain ordering on every skewed grid row (the
// true-LRU hit ratio must be >= one-behind's), stale-hit accounting
// (churned rows show stale hits, stale hits fall back slow, slow_us[0] >
// fast_us[0]), and packet conservation on every row
// (harness::conservation_error), so schedule accounting can never silently
// drift from the spec again.
// The shard grid adds four more enforced invariants:
//  1. the 1-core shard rows reproduce flat run_fleet digests exactly;
//  2. aggregate closed-loop throughput strictly increases 1 -> 4 -> 16
//     cores under uniform load;
//  3. on every open-loop Zipf (s >= 1.2) row the hot core's sojourn p999
//     exceeds the fleet's median per-core sojourn p999;
//  4. per-core packet conservation holds on every shard row.
//
//   bench_fleet_scaling [packets-per-row] [out-dir] [jumbo-connections]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "harness/sweep.h"
#include "harness/tables.h"

using namespace l96;

int main(int argc, char** argv) {
  std::uint64_t packets = 192;
  std::string out_dir = "bench/out";
  std::size_t jumbo_conns = 100'000;
  if (argc > 1) packets = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) out_dir = argv[2];
  if (argc > 3) jumbo_conns = std::strtoull(argv[3], nullptr, 10);
  if (packets == 0 || jumbo_conns == 0) {
    std::fprintf(stderr, "usage: bench_fleet_scaling [packets>0] [out-dir] "
                         "[jumbo-connections>0]\n");
    return 2;
  }

  const code::StackConfig cfg = code::StackConfig::All();
  const harness::BurstCostTable costs =
      harness::measure_burst_costs(net::StackKind::kTcpIp, cfg, 4);

  const code::FlowCacheScheme schemes[] = {
      code::FlowCacheScheme::kOneBehind, code::FlowCacheScheme::kDirectMapped,
      code::FlowCacheScheme::kLru};
  const std::size_t conn_counts[] = {4, 16};
  const double skews[] = {0.0, 1.2};
  const std::size_t batches[] = {1, 16};

  std::vector<harness::FleetSpec> specs;
  for (auto scheme : schemes) {
    for (std::size_t conns : conn_counts) {
      for (double s : skews) {
        for (std::size_t batch : batches) {
          harness::FleetSpec spec;
          spec.kind = net::StackKind::kTcpIp;
          spec.config = cfg;
          spec.scheme = scheme;
          spec.connections = conns;
          spec.packets = packets;
          spec.batch = batch;
          spec.zipf_s = s;
          spec.seed = 42;
          spec.cache_capacity = 8;
          spec.churn_every = packets / 4 == 0 ? 1 : packets / 4;
          char label[96];
          std::snprintf(label, sizeof(label), "%s/c%zu/s%.1f/b%zu",
                        code::to_string(scheme), conns, s, batch);
          spec.label = label;
          specs.push_back(std::move(spec));
        }
      }
    }
  }

  harness::FleetRunSpec fleet_run;
  fleet_run.rows = specs;
  fleet_run.costs = costs;
  const std::vector<harness::FleetResult> rows = harness::run(fleet_run).fleet;

  harness::Table t(
      "Fleet scaling: flow-cache schemes, " + std::to_string(packets) +
      " packets/row (TCP/IP ALL, capacity 8, churn every " +
      std::to_string(specs.front().churn_every) + ")");
  t.columns({"row", "hit%", "stale%", "slow", "p50 [us]", "p99 [us]",
             "p999 [us]", "mean [us]"});
  for (const auto& r : rows) {
    t.row({r.spec.label, harness::fmt(100.0 * r.cache.hit_ratio(), 1),
           harness::fmt(100.0 * r.cache.stale_ratio(), 2),
           std::to_string(r.slow_packets), harness::fmt(r.latency.p50, 1),
           harness::fmt(r.latency.p99, 1), harness::fmt(r.latency.p999, 1),
           harness::fmt(r.latency.mean, 1)});
  }
  t.print();
  std::printf("costs: controller %.1f us; fast per position:",
              costs.controller_us);
  for (double v : costs.fast_us) std::printf(" %.2f", v);
  std::printf(" us; slow per position:");
  for (double v : costs.slow_us) std::printf(" %.2f", v);
  std::printf(" us\n");

  // l96.sweep.v1 emission: one row per scheme over the shared ALL/ALL
  // capture, each carrying its grid slice as an l96.fleet.v2 section.
  std::vector<harness::SweepJob> jobs;
  for (auto scheme : schemes) {
    harness::SweepJob j;
    j.label = std::string("fleet/") + code::to_string(scheme);
    j.kind = net::StackKind::kTcpIp;
    j.client = j.server = cfg;
    jobs.push_back(std::move(j));
  }
  harness::SweepRunner sweep_runner;
  auto outcomes = sweep_runner.run(jobs);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    std::vector<harness::FleetResult> slice;
    for (const auto& r : rows) {
      if (r.spec.scheme == schemes[i]) slice.push_back(r);
    }
    outcomes[i].extra_json("fleet", harness::fleet_json(costs, slice));
  }
  const std::string sweep_path = harness::write_sweep_metrics(
      "fleet_scaling", sweep_runner, jobs, outcomes, out_dir);
  std::printf("wrote %s\n", sweep_path.c_str());

  // Deterministic standalone summary (no wall-clock fields): byte-identical
  // for a fixed seed, whatever the worker count.
  const std::filesystem::path summary_path =
      std::filesystem::path(out_dir) / "fleet_summary.json";
  harness::write_json_file(summary_path, harness::fleet_json(costs, rows));
  std::printf("wrote %s\n", summary_path.string().c_str());

  // --- sharded multi-core grid --------------------------------------------
  // A base fleet row shared by every shard spec: LRU, no churn (the shard
  // engine's churn-handshake frames would only add noise to the scaling
  // story), population fixed per sub-grid.
  const auto shard_fleet = [&](std::size_t conns, double skew) {
    harness::FleetSpec spec;
    spec.kind = net::StackKind::kTcpIp;
    spec.config = cfg;
    spec.scheme = code::FlowCacheScheme::kLru;
    spec.connections = conns;
    spec.packets = packets * 8;
    spec.batch = 1;
    spec.zipf_s = skew;
    spec.seed = 42;
    spec.cache_capacity = 8;
    spec.churn_every = 0;
    return spec;
  };
  const auto shard_label = [](const harness::ShardSpec& s) {
    char label[96];
    std::snprintf(label, sizeof(label), "c%zu/%s/s%.1f/n%zu%s", s.cores,
                  harness::to_string(s.steering), s.fleet.zipf_s,
                  s.fleet.connections, s.arrival_us > 0 ? "/open" : "");
    return std::string(label);
  };

  // Every 1-core chain row is digest-pinned against a flat run_fleet of the
  // same population.
  const std::size_t chain_conns = 4096;
  const std::size_t core_grid[] = {1, 4, 16, 64};
  const harness::SteeringPolicy steerings[] = {
      harness::SteeringPolicy::kFlowHash, harness::SteeringPolicy::kLeastLoaded};

  std::vector<harness::ShardSpec> shard_specs;
  // Closed-loop scaling chain: cores x steering x skew (steering is
  // meaningless at 1 core — hash only there).
  for (std::size_t cores : core_grid) {
    for (auto steering : steerings) {
      if (cores == 1 && steering != harness::SteeringPolicy::kFlowHash) {
        continue;
      }
      for (double skew : skews) {
        harness::ShardSpec s;
        s.fleet = shard_fleet(chain_conns, skew);
        s.cores = cores;
        s.steering = steering;
        s.fleet.label = shard_label(s);
        shard_specs.push_back(std::move(s));
      }
    }
  }
  // Open-loop rows need the 1-core closed row's mean service time; run the
  // closed grid first, then append the open and jumbo rows.
  harness::ShardRunSpec shard_run;
  shard_run.rows = shard_specs;
  shard_run.costs = costs;
  std::vector<harness::ShardResult> shard_rows = harness::run(shard_run).shard;
  const harness::ShardResult* one_core_uniform = nullptr;
  for (const auto& r : shard_rows) {
    if (r.spec.cores == 1 && r.spec.fleet.zipf_s == 0.0) one_core_uniform = &r;
  }
  const double mean_service_us = one_core_uniform->latency.mean;

  std::vector<harness::ShardSpec> late_specs;
  // Open-loop queueing rows: arrival spacing targets 0.75 utilization per
  // core under a uniform spread, so the Zipf-hot flow's core saturates
  // while the fleet median stays flat (16 cores: hot-flow share ~0.2 =>
  // hot-core load ~2.4x capacity).
  for (std::size_t cores : {std::size_t{16}, std::size_t{64}}) {
    for (auto steering : steerings) {
      harness::ShardSpec s;
      s.fleet = shard_fleet(chain_conns, 1.2);
      s.cores = cores;
      s.steering = steering;
      s.arrival_us = mean_service_us / (0.75 * static_cast<double>(cores));
      s.fleet.label = shard_label(s);
      late_specs.push_back(std::move(s));
    }
  }
  // Jumbo rows: the 100k..1M-connection population across 4..64 cores;
  // each core numbers its own flows, as every world does.
  for (std::size_t cores : {std::size_t{4}, std::size_t{16}, std::size_t{64}}) {
    harness::ShardSpec s;
    s.fleet = shard_fleet(jumbo_conns, 1.2);
    s.cores = cores;
    s.fleet.label = shard_label(s);
    late_specs.push_back(std::move(s));
  }
  shard_run.rows = late_specs;
  const std::vector<harness::ShardResult> late_rows =
      harness::run(shard_run).shard;
  shard_rows.insert(shard_rows.end(), late_rows.begin(), late_rows.end());

  harness::Table st("Sharded fleet scaling: " +
                    std::to_string(packets * 8) + " packets/row (TCP/IP ALL, "
                    "LRU cap 8, RSS flow steering, per-core machine models)");
  st.columns({"row", "thr [Mpps]", "hot", "hot util", "hot p999 [us]",
              "med p999 [us]", "p50 [us]", "p999 [us]", "ok"});
  const auto median_core_p999 = [](const harness::ShardResult& r) {
    std::vector<double> p;
    for (const auto& c : r.cores) p.push_back(c.sojourn.p999);
    std::sort(p.begin(), p.end());
    return p[p.size() / 2];
  };
  for (const auto& r : shard_rows) {
    const auto& hot = r.cores[r.hot_core];
    st.row({r.spec.fleet.label, harness::fmt(r.throughput_mpps, 4),
            std::to_string(r.hot_core), harness::fmt(hot.utilization, 3),
            harness::fmt(hot.sojourn.p999, 1),
            harness::fmt(median_core_p999(r), 1),
            harness::fmt(r.sojourn.p50, 1), harness::fmt(r.sojourn.p999, 1),
            r.conserved ? "y" : "N"});
  }
  st.print();

  const std::filesystem::path shard_path =
      std::filesystem::path(out_dir) / "shard_summary.json";
  harness::write_json_file(shard_path, harness::shard_json(costs, shard_rows));
  std::printf("wrote %s\n", shard_path.string().c_str());

  // --- invariants ----------------------------------------------------------
  int failures = 0;
  if (!(costs.slow_us.front() > costs.fast_us.front())) {
    std::fprintf(stderr,
                 "FAIL: slow-path fallback (%.3f us) is not priced above "
                 "the inlined fast path (%.3f us)\n",
                 costs.slow_us.front(), costs.fast_us.front());
    ++failures;
  }
  // Packet conservation, every row.
  for (const auto& r : rows) {
    if (const std::string violation = harness::conservation_error(r);
        !violation.empty()) {
      std::fprintf(stderr, "FAIL: %s\n", violation.c_str());
      ++failures;
    }
  }
  // Jain ordering: per (connections, skew>0, batch) cell, LRU >= one-behind.
  std::map<std::string, const harness::FleetResult*> by_label;
  for (const auto& r : rows) by_label[r.spec.label] = &r;
  for (std::size_t conns : conn_counts) {
    for (double s : skews) {
      if (s <= 0.0) continue;
      for (std::size_t batch : batches) {
        char ob[96], lru[96];
        std::snprintf(ob, sizeof(ob), "%s/c%zu/s%.1f/b%zu",
                      code::to_string(code::FlowCacheScheme::kOneBehind),
                      conns, s, batch);
        std::snprintf(lru, sizeof(lru), "%s/c%zu/s%.1f/b%zu",
                      code::to_string(code::FlowCacheScheme::kLru), conns, s,
                      batch);
        const double hr_ob = by_label.at(ob)->cache.hit_ratio();
        const double hr_lru = by_label.at(lru)->cache.hit_ratio();
        if (hr_lru + 1e-12 < hr_ob) {
          std::fprintf(stderr,
                       "FAIL: %s hit ratio %.4f < %s hit ratio %.4f\n", lru,
                       hr_lru, ob, hr_ob);
          ++failures;
        }
      }
    }
  }
  // Stale-hit accounting.  Every stale hit must have fallen back to the
  // slow path; and in churned LRU rows whose whole fleet fits in the cache
  // the churned flow's entry is guaranteed still resident, so each churn
  // must produce an observed stale hit.  (Smaller schemes may legitimately
  // evict the stale entry before the flow returns — a silent miss, not a
  // stale hit — so no presence check there.)
  for (const auto& r : rows) {
    if (r.slow_packets < r.cache.stale_hits) {
      std::fprintf(stderr,
                   "FAIL: %s shows %llu stale hits but only %llu slow-path "
                   "packets — a stale hit did not fall back\n",
                   r.spec.label.c_str(),
                   static_cast<unsigned long long>(r.cache.stale_hits),
                   static_cast<unsigned long long>(r.slow_packets));
      ++failures;
    }
    const bool resident = r.spec.scheme == code::FlowCacheScheme::kLru &&
                          r.spec.connections <= r.spec.cache_capacity;
    if (resident && r.churns != 0 &&
        (r.cache.stale_hits == 0 || r.slow_packets == 0)) {
      std::fprintf(stderr,
                   "FAIL: %s churned %llu times but shows %llu stale hits / "
                   "%llu slow packets\n",
                   r.spec.label.c_str(),
                   static_cast<unsigned long long>(r.churns),
                   static_cast<unsigned long long>(r.cache.stale_hits),
                   static_cast<unsigned long long>(r.slow_packets));
      ++failures;
    }
  }
  // Shard invariant 1: every 1-core shard row reproduces the flat
  // run_fleet digest byte for byte (the sharding refactor cannot have
  // perturbed the single-machine engine).
  for (const auto& r : shard_rows) {
    if (r.spec.cores != 1) continue;
    const harness::FleetResult flat = harness::run_fleet(r.spec.fleet, costs);
    if (r.sample_digest != flat.sample_digest ||
        r.packets_sampled != flat.packets_sampled) {
      std::fprintf(stderr,
                   "FAIL: %s 1-core digest %016llx != flat run_fleet digest "
                   "%016llx\n",
                   r.spec.fleet.label.c_str(),
                   static_cast<unsigned long long>(r.sample_digest),
                   static_cast<unsigned long long>(flat.sample_digest));
      ++failures;
    }
  }
  // Shard invariant 2: closed-loop aggregate throughput strictly increases
  // 1 -> 4 -> 16 cores under uniform load (hash steering).
  {
    std::map<std::size_t, double> thr;
    for (const auto& r : shard_rows) {
      if (r.spec.steering == harness::SteeringPolicy::kFlowHash &&
          r.spec.fleet.zipf_s == 0.0 && r.spec.arrival_us == 0 &&
          r.spec.fleet.connections == chain_conns) {
        thr[r.spec.cores] = r.throughput_mpps;
      }
    }
    if (!(thr.at(1) < thr.at(4) && thr.at(4) < thr.at(16))) {
      std::fprintf(stderr,
                   "FAIL: uniform-load throughput not strictly increasing: "
                   "1 core %.4f, 4 cores %.4f, 16 cores %.4f Mpps\n",
                   thr.at(1), thr.at(4), thr.at(16));
      ++failures;
    }
  }
  // Shard invariant 3: on every open-loop Zipf row the hot core's sojourn
  // tail exceeds the fleet's median per-core tail (head-of-line: one hot
  // flow pins one core).
  for (const auto& r : shard_rows) {
    if (r.spec.arrival_us <= 0 || r.spec.fleet.zipf_s < 1.2) continue;
    const double hot_p999 = r.cores[r.hot_core].sojourn.p999;
    const double med_p999 = median_core_p999(r);
    if (!(hot_p999 > med_p999)) {
      std::fprintf(stderr,
                   "FAIL: %s hot core %u sojourn p999 %.1f us does not "
                   "exceed the median per-core p999 %.1f us\n",
                   r.spec.fleet.label.c_str(), r.hot_core, hot_p999,
                   med_p999);
      ++failures;
    }
  }
  // Shard invariant 4: per-core packet conservation on every shard row.
  for (const auto& r : shard_rows) {
    if (!r.conserved) {
      std::fprintf(stderr, "FAIL: %s failed per-core packet conservation\n",
                   r.spec.fleet.label.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
