// Every multi-connection result from one binary.
//
// The paper prices one connection.  These results price its classifier
// guard (Section 3.3) and its path-inlined fast path across many flows.
// stdout carries, in order:
//  1. the fleet grid: Jain's flow-cache schemes (DEC-TR-592: one-behind,
//     direct-mapped, true LRU) over connections x Zipf skew x burst batch,
//     with the hottest connection churned every quarter of the schedule;
//  2. the shard grid: the same fleet over 1-64 simulated cores with RSS or
//     least-loaded steering, closed loop, open loop at 0.75 per-core
//     utilization (the nanoPU head-of-line tail) and 100k-flow rows;
//  3. burst amortization: an 8-position activation stream of the server's
//     receive path per layout, its batch fold, and a measured ALL fleet
//     over the same batch sizes;
//  4. recovery latency under a link blackout and a server crash/reboot;
//  5. LB failover under a backend drain and a backend crash;
//  6. classifier scale: measured lookup costs by decoy rule count, an LRU
//     fleet grid priced from them, and PIN/ALL's break-even against CLO.
// Each section has one fixed row size, and each cost table is measured
// once.  Writes bench/out/{fleet_summary, shard_summary, burst_amortization,
// recovery_latency_pin, recovery_latency_all, lb_failover,
// classifier_scale}.json, each a pure function of the seeds: byte-identical
// across runs and runner worker counts.
//
// Exits 1, with one FAIL: line per failed check on stderr, unless:
//  * fleet: the slow path is priced above the fast path; every row
//    conserves packets; LRU hits at least as often as one-behind on every
//    skewed cell; every stale hit falls back slow, and churned LRU rows
//    that hold the whole fleet take stale hits;
//  * shard: 1-core rows reproduce flat run_fleet digests; uniform
//    closed-loop throughput strictly rises 1 -> 4 -> 16 cores; every
//    open-loop Zipf row's hot core has a fatter sojourn p999 than the
//    median core; every core conserves packets;
//  * burst: first-in-burst cost is above the steady cost, positions never
//    get dearer, position 1 has i-cache carryover, CLO's steady cost and
//    batch means stay at or below BAD's, and the fleet mean never rises
//    with the batch;
//  * recovery: every row conserves packets, prices nothing inside a window
//    and recovers from every window; LRU crash rows' recovery p999 is above
//    their steady p999; LRU recovers no slower than one-behind;
//  * LB: every row conserves packets; every Maglev rebuild remaps ~1/n of
//    the table; a quiet row disrupts nothing; a drain is hitless; a crash
//    loses at most 4 packets per connection, steers away within the
//    health-detection budget, restores, and lifts p999 above the quiet
//    row's;
//  * classifier: re-measurement is bitwise stable; tuple and linear agree
//    on every fuzz frame; tuple beats linear at 2,048 rules; the miss
//    profile's owner rows conserve and name classify_* code; fleet rows
//    conserve packets with zero unmatched scans; the cached lookup
//    undercuts the linear always-scan on every skewed 2,048-rule row; PIN
//    and ALL beat CLO with a free classifier and with a hit on both sides,
//    lose to it with a 2,048-rule linear scan, and that scan's cost rises
//    with the rule count;
//  * the recovery, LB and classifier grids re-run on one worker to the
//    same section bytes.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "code/classifier.h"
#include "harness/classify.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "harness/tables.h"
#include "protocols/rulegen.h"
#include "sim/miss_profiler.h"

using namespace l96;
using harness::fmt;
using C = code::StackConfig;
using Scheme = code::FlowCacheScheme;

namespace {

constexpr auto kTcpIp = net::StackKind::kTcpIp;
const std::filesystem::path kOut = "bench/out";

constexpr std::uint64_t kFleetPackets = 96;       ///< per fleet-grid row
constexpr std::uint64_t kShardPackets = 8 * kFleetPackets;
constexpr std::size_t kJumboConnections = 100'000;
constexpr std::uint64_t kBurstFleetPackets = 128;
constexpr std::uint64_t kDisruptedPackets = 160;  ///< recovery and LB rows
constexpr std::uint64_t kClassifierPackets = 192;
const double kSkews[] = {0.0, 1.2};

/// Counts failed checks; each prints one FAIL: line on stderr.
struct Checks {
  int failures = 0;

  /// FAIL with the printf-formatted message unless `ok`.
  [[gnu::format(printf, 3, 4)]] void expect(bool ok, const char* format,
                                            ...) {
    if (ok) return;
    std::va_list args;
    va_start(args, format);
    std::fputs("FAIL: ", stderr);
    std::vfprintf(stderr, format, args);
    std::fputc('\n', stderr);
    va_end(args);
    ++failures;
  }

  void expect_conserved(const harness::FleetResult& r) {
    const std::string violation = harness::conservation_error(r);
    expect(violation.empty(), "%s", violation.c_str());
  }
};

const std::string& label_of(const harness::FleetResult& r) {
  return r.spec.label;
}
const std::string& label_of(const harness::RecoveryResult& r) {
  return r.spec.fleet.label;
}
const std::string& label_of(const harness::LbResult& r) {
  return r.spec.fleet.label;
}

/// The row labelled `label`; throws std::out_of_range, which main reports
/// as a FAIL, when there is none.
template <typename Row>
const Row& by_label(const std::vector<Row>& rows, const std::string& label) {
  for (const Row& r : rows) {
    if (label_of(r) == label) return r;
  }
  throw std::out_of_range("no row labelled " + label);
}

/// Re-runs `spec` on one worker and FAILs unless its section dumps byte
/// for byte as `o`'s did; returns the re-run.
template <typename RunSpec>
harness::Outcome rerun_on_one_worker(Checks& checks, RunSpec spec,
                                     const harness::Outcome& o,
                                     const std::string& grid) {
  spec.common.workers = 1;
  spec.common.out_path.clear();
  harness::Outcome again = harness::run(spec);
  checks.expect(again.section.dump() == o.section.dump(),
                "%s grid is not byte-identical across runner worker counts "
                "(%zu vs 1)",
                grid.c_str(), o.workers_used);
  return again;
}

/// The row every section starts from: TCP/IP, seed 42, an LRU flow cache
/// of 8 entries, batch 1, no churn.
harness::FleetSpec fleet_row(const C& config, std::uint64_t packets,
                             std::size_t connections, double zipf_s) {
  harness::FleetSpec f;
  f.config = config;
  f.packets = packets;
  f.connections = connections;
  f.zipf_s = zipf_s;
  f.seed = 42;
  return f;
}

/// A scripted disruption, anchored at the post-establishment reset point.
struct Scenario {
  const char* name;
  const char* script;
  bool crash;
};

double max_ttr(const harness::RecoveryResult& r) {
  double ttr = 0;
  for (const auto& w : r.windows) ttr = std::max(ttr, w.ttr_us);
  return ttr;
}

// --- 1. fleet grid -----------------------------------------------------------

std::string fleet_label(Scheme scheme, std::size_t conns, double skew,
                        std::size_t batch) {
  char label[96];
  std::snprintf(label, sizeof(label), "%s/c%zu/s%.1f/b%zu",
                code::to_string(scheme), conns, skew, batch);
  return label;
}

void fleet_grid(Checks& checks, const harness::BurstCostTable& costs) {
  const Scheme schemes[] = {Scheme::kOneBehind, Scheme::kDirectMapped,
                            Scheme::kLru};
  const std::size_t conn_counts[] = {4, 16};
  const std::size_t batches[] = {1, 16};
  constexpr std::uint64_t churn_every = kFleetPackets / 4;

  harness::FleetRunSpec run;
  run.costs = costs;
  run.common.out_path = (kOut / "fleet_summary.json").string();
  for (Scheme scheme : schemes) {
    for (std::size_t conns : conn_counts) {
      for (double skew : kSkews) {
        for (std::size_t batch : batches) {
          harness::FleetSpec spec =
              fleet_row(C::All(), kFleetPackets, conns, skew);
          spec.scheme = scheme;
          spec.batch = batch;
          spec.churn_every = churn_every;
          spec.label = fleet_label(scheme, conns, skew, batch);
          run.rows.push_back(std::move(spec));
        }
      }
    }
  }
  const std::vector<harness::FleetResult> rows = harness::run(run).fleet;

  harness::Table t("Fleet scaling: flow-cache schemes, " +
                   std::to_string(kFleetPackets) +
                   " packets/row (TCP/IP ALL, capacity 8, churn every " +
                   std::to_string(churn_every) + ")");
  t.columns({"row", "hit%", "stale%", "slow", "p50 [us]", "p99 [us]",
             "p999 [us]", "mean [us]"});
  for (const auto& r : rows) {
    t.row({r.spec.label, fmt(100.0 * r.cache.hit_ratio(), 1),
           fmt(100.0 * r.cache.stale_ratio(), 2),
           std::to_string(r.slow_packets), fmt(r.latency.p50, 1),
           fmt(r.latency.p99, 1), fmt(r.latency.p999, 1),
           fmt(r.latency.mean, 1)});
  }
  t.print();
  std::printf("costs: controller %.1f us; fast per position:",
              costs.controller_us);
  for (double v : costs.fast_us) std::printf(" %.2f", v);
  std::printf(" us; slow per position:");
  for (double v : costs.slow_us) std::printf(" %.2f", v);
  std::printf(" us\n\n");

  checks.expect(costs.slow_us.front() > costs.fast_us.front(),
                "slow-path fallback (%.3f us) is not priced above the "
                "inlined fast path (%.3f us)",
                costs.slow_us.front(), costs.fast_us.front());
  for (const auto& r : rows) checks.expect_conserved(r);
  // Jain ordering: per (connections, skew > 0, batch), LRU >= one-behind.
  for (std::size_t conns : conn_counts) {
    for (double skew : kSkews) {
      if (skew <= 0.0) continue;
      for (std::size_t batch : batches) {
        const std::string ob =
            fleet_label(Scheme::kOneBehind, conns, skew, batch);
        const std::string lru = fleet_label(Scheme::kLru, conns, skew, batch);
        const double hr_ob = by_label(rows, ob).cache.hit_ratio();
        const double hr_lru = by_label(rows, lru).cache.hit_ratio();
        checks.expect(hr_lru + 1e-12 >= hr_ob,
                      "%s hit ratio %.4f < %s hit ratio %.4f", lru.c_str(),
                      hr_lru, ob.c_str(), hr_ob);
      }
    }
  }
  // Every stale hit must fall back to the slow path.  In churned LRU rows
  // whose whole fleet fits in the cache the churned flow's entry is still
  // resident, so each churn must show a stale hit; smaller caches may evict
  // the stale entry first (a silent miss), so no presence check there.
  const auto n = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  for (const auto& r : rows) {
    checks.expect(r.slow_packets >= r.cache.stale_hits,
                  "%s shows %llu stale hits but only %llu slow-path packets "
                  "— a stale hit did not fall back",
                  r.spec.label.c_str(), n(r.cache.stale_hits),
                  n(r.slow_packets));
    const bool resident = r.spec.scheme == Scheme::kLru &&
                          r.spec.connections <= r.spec.cache_capacity;
    checks.expect(!resident || r.churns == 0 ||
                      (r.cache.stale_hits != 0 && r.slow_packets != 0),
                  "%s churned %llu times but shows %llu stale hits / %llu "
                  "slow packets",
                  r.spec.label.c_str(), n(r.churns), n(r.cache.stale_hits),
                  n(r.slow_packets));
  }
}

// --- 2. shard grid -----------------------------------------------------------

std::string shard_label(const harness::ShardSpec& s) {
  char label[96];
  std::snprintf(label, sizeof(label), "c%zu/%s/s%.1f/n%zu%s", s.cores,
                harness::to_string(s.steering), s.fleet.zipf_s,
                s.fleet.connections, s.arrival_us > 0 ? "/open" : "");
  return label;
}

double median_core_p999(const harness::ShardResult& r) {
  std::vector<double> p;
  for (const auto& c : r.cores) p.push_back(c.sojourn.p999);
  std::sort(p.begin(), p.end());
  return p[p.size() / 2];
}

void shard_grid(Checks& checks, const harness::BurstCostTable& costs) {
  constexpr std::size_t chain_conns = 4096;
  const harness::SteeringPolicy steerings[] = {
      harness::SteeringPolicy::kFlowHash,
      harness::SteeringPolicy::kLeastLoaded};
  // LRU without churn (a churn handshake would only add noise to the
  // scaling story).
  const auto row = [](std::size_t cores, harness::SteeringPolicy steering,
                      std::size_t conns, double skew, double arrival_us) {
    harness::ShardSpec s;
    s.fleet = fleet_row(C::All(), kShardPackets, conns, skew);
    s.cores = cores;
    s.steering = steering;
    s.arrival_us = arrival_us;
    s.fleet.label = shard_label(s);
    return s;
  };

  // Closed-loop chain: cores x steering x skew (hash only at 1 core).
  harness::ShardRunSpec run;
  run.costs = costs;
  for (std::size_t cores : {1, 4, 16, 64}) {
    for (auto steering : steerings) {
      if (cores == 1 && steering != harness::SteeringPolicy::kFlowHash) {
        continue;
      }
      for (double skew : kSkews) {
        run.rows.push_back(row(cores, steering, chain_conns, skew, 0));
      }
    }
  }
  std::vector<harness::ShardResult> rows = harness::run(run).shard;

  // Open-loop rows space arrivals from the 1-core uniform row's mean
  // service time for 0.75 utilization per core under a uniform spread, so
  // the Zipf-hot flow's core saturates while the median core stays flat.
  // Jumbo rows spread 100k flows, each core numbering its own.
  const double mean_service_us = rows[0].latency.mean;
  run.rows.clear();
  for (std::size_t cores : {16, 64}) {
    for (auto steering : steerings) {
      run.rows.push_back(row(cores, steering, chain_conns, 1.2,
                             mean_service_us / (0.75 * cores)));
    }
  }
  for (std::size_t cores : {4, 16, 64}) {
    run.rows.push_back(row(cores, harness::SteeringPolicy::kFlowHash,
                           kJumboConnections, 1.2, 0));
  }
  const std::vector<harness::ShardResult> late = harness::run(run).shard;
  rows.insert(rows.end(), late.begin(), late.end());
  harness::write_json_file(kOut / "shard_summary.json",
                           harness::shard_json(costs, rows));

  harness::Table t("Sharded fleet scaling: " + std::to_string(kShardPackets) +
                   " packets/row (TCP/IP ALL, LRU cap 8, RSS flow steering, "
                   "per-core machine models)");
  t.columns({"row", "thr [Mpps]", "hot", "hot util", "hot p999 [us]",
             "med p999 [us]", "p50 [us]", "p999 [us]", "ok"});
  for (const auto& r : rows) {
    const auto& hot = r.cores[r.hot_core];
    t.row({r.spec.fleet.label, fmt(r.throughput_mpps, 4),
           std::to_string(r.hot_core), fmt(hot.utilization, 3),
           fmt(hot.sojourn.p999, 1), fmt(median_core_p999(r), 1),
           fmt(r.sojourn.p50, 1), fmt(r.sojourn.p999, 1),
           r.conserved ? "y" : "N"});
  }
  t.print();

  std::map<std::size_t, double> uniform_thr;
  for (const auto& r : rows) {
    const std::string& label = r.spec.fleet.label;
    // 1-core rows are flat run_fleet rows, digest for digest.
    if (r.spec.cores == 1) {
      const harness::FleetResult flat = harness::run_fleet(r.spec.fleet, costs);
      checks.expect(r.sample_digest == flat.sample_digest &&
                        r.packets_sampled == flat.packets_sampled,
                    "%s 1-core digest %016llx != flat run_fleet digest "
                    "%016llx",
                    label.c_str(),
                    static_cast<unsigned long long>(r.sample_digest),
                    static_cast<unsigned long long>(flat.sample_digest));
    }
    if (r.spec.steering == harness::SteeringPolicy::kFlowHash &&
        r.spec.fleet.zipf_s == 0.0 && r.spec.arrival_us == 0 &&
        r.spec.fleet.connections == chain_conns) {
      uniform_thr[r.spec.cores] = r.throughput_mpps;
    }
    // Head-of-line: one hot flow pins one core.
    if (r.spec.arrival_us > 0 && r.spec.fleet.zipf_s >= 1.2) {
      const double hot_p999 = r.cores[r.hot_core].sojourn.p999;
      checks.expect(hot_p999 > median_core_p999(r),
                    "%s hot core %u sojourn p999 %.1f us does not exceed "
                    "the median per-core p999 %.1f us",
                    label.c_str(), r.hot_core, hot_p999, median_core_p999(r));
    }
    checks.expect(r.conserved, "%s failed per-core packet conservation",
                  label.c_str());
  }
  const double t1 = uniform_thr.at(1), t4 = uniform_thr.at(4),
               t16 = uniform_thr.at(16);
  checks.expect(t1 < t4 && t4 < t16,
                "uniform-load throughput not strictly increasing: 1 core "
                "%.4f, 4 cores %.4f, 16 cores %.4f Mpps",
                t1, t4, t16);
}

// --- 3. burst amortization ---------------------------------------------------

constexpr std::size_t kPositions = 8;
const std::size_t kBatches[] = {1, 4, 16, 64};

struct LayoutCurve {
  std::string name;
  std::vector<double> tp_us;                ///< per-position cost
  std::vector<std::uint64_t> icache_carry;  ///< carryover hits per position
  std::vector<std::uint64_t> dcache_carry;
};

LayoutCurve measure_curve(const C& cfg) {
  harness::Experiment e(kTcpIp, cfg, cfg);
  e.capture();
  harness::StreamSpec spec;
  spec.base = e.server_spec();
  spec.base.profile_misses = true;
  spec.burst = kPositions;
  const harness::StreamMeasurement m = harness::measure_stream(spec);

  LayoutCurve c;
  c.name = cfg.name;
  for (const auto& p : m.positions) c.tp_us.push_back(p.tp_us);
  for (const auto& row : m.miss->icache.positions) {
    c.icache_carry.push_back(row.carryover_hits);
  }
  for (const auto& row : m.miss->dcache.positions) {
    c.dcache_carry.push_back(row.carryover_hits);
  }
  return c;
}

/// Mean per-packet cost of one burst of `batch` packets priced off the
/// curve (positions past the measured tail clamp to the last entry).
double burst_mean_us(const std::vector<double>& tp_us, std::size_t batch) {
  double sum = 0;
  for (std::size_t p = 0; p < batch; ++p) {
    sum += tp_us[std::min(p, tp_us.size() - 1)];
  }
  return sum / static_cast<double>(batch);
}

void burst_amortization(Checks& checks) {
  std::vector<LayoutCurve> curves;
  for (const C& cfg : {C::Std(), C::Bad(), C::Clo(), C::All()}) {
    curves.push_back(measure_curve(cfg));
  }

  harness::Table pos_t(
      "Burst amortization: server receive activation cost by burst "
      "position (TCP/IP, 8-position stream)");
  std::vector<std::string> cols = {"Version"};
  for (std::size_t p = 0; p < kPositions; ++p) {
    cols.push_back("p" + std::to_string(p) + " [us]");
  }
  cols.push_back("carry@p1");
  pos_t.columns(cols);
  harness::Table batch_t("Burst fold: mean per-packet cost / implied "
                         "service throughput by batch size");
  batch_t.columns({"Version", "b1 [us]", "b4 [us]", "b16 [us]", "b64 [us]",
                   "b64 [kpps]"});
  for (const auto& c : curves) {
    std::vector<std::string> row = {c.name};
    for (double v : c.tp_us) row.push_back(fmt(v, 2));
    row.push_back(std::to_string(c.icache_carry[1] + c.dcache_carry[1]));
    pos_t.row(row);
    row = {c.name};
    for (std::size_t b : kBatches) {
      row.push_back(fmt(burst_mean_us(c.tp_us, b), 2));
    }
    row.push_back(fmt(1e3 / burst_mean_us(c.tp_us, 64), 1));
    batch_t.row(row);
  }
  pos_t.print();
  batch_t.print();

  // A measured ALL fleet over the same batch axis; a uniform draw makes
  // every packet a plain LRU hit, so the batch size is the only moving part.
  harness::FleetRunSpec run;
  run.costs = harness::measure_burst_costs(kTcpIp, C::All(), kPositions);
  for (std::size_t b : kBatches) {
    harness::FleetSpec spec = fleet_row(C::All(), kBurstFleetPackets, 8, 0.0);
    spec.label = "all/b" + std::to_string(b);
    spec.batch = b;
    run.rows.push_back(std::move(spec));
  }
  const harness::Outcome fleet = harness::run(run);
  harness::Table fleet_t("Measured ALL fleet, " +
                         std::to_string(kBurstFleetPackets) +
                         " packets, 8 connections, uniform draw");
  fleet_t.columns({"batch", "p50 [us]", "mean [us]", "max [us]"});
  for (const auto& r : fleet.fleet) {
    fleet_t.row({std::to_string(r.spec.batch), fmt(r.latency.p50, 2),
                 fmt(r.latency.mean, 2), fmt(r.latency.max, 2)});
  }
  fleet_t.print();

  harness::Json section = harness::emit_section("burst", 1);
  section.set("positions", std::uint64_t{kPositions});
  harness::Json layouts = harness::Json::array();
  for (const auto& c : curves) {
    harness::Json tp = harness::Json::array();
    for (double v : c.tp_us) tp.push_back(v);
    harness::Json ic = harness::Json::array();
    for (auto v : c.icache_carry) ic.push_back(v);
    harness::Json dc = harness::Json::array();
    for (auto v : c.dcache_carry) dc.push_back(v);
    harness::Json batches = harness::Json::array();
    for (std::size_t b : kBatches) {
      const double mean = burst_mean_us(c.tp_us, b);
      batches.push_back(harness::Json::object()
                            .set("batch", static_cast<std::uint64_t>(b))
                            .set("first_us", c.tp_us.front())
                            .set("steady_us", c.tp_us.back())
                            .set("mean_us", mean)
                            .set("throughput_pps", 1e6 / mean));
    }
    layouts.push_back(harness::Json::object()
                          .set("name", c.name)
                          .set("tp_us", std::move(tp))
                          .set("carryover_icache_hits", std::move(ic))
                          .set("carryover_dcache_hits", std::move(dc))
                          .set("batches", std::move(batches)));
  }
  section.set("layouts", std::move(layouts));
  section.set("fleet", fleet.section);
  harness::write_json_file(kOut / "burst_amortization.json", section);

  for (const auto& c : curves) {
    const char* name = c.name.c_str();
    checks.expect(c.tp_us.front() > c.tp_us.back(),
                  "%s first-in-burst cost %.3f us is not strictly above the "
                  "steady amortized cost %.3f us",
                  name, c.tp_us.front(), c.tp_us.back());
    for (std::size_t p = 1; p < c.tp_us.size(); ++p) {
      checks.expect(c.tp_us[p] <= c.tp_us[p - 1] + 1e-9,
                    "%s position %zu (%.3f us) priced above position %zu "
                    "(%.3f us)",
                    name, p, c.tp_us[p], p - 1, c.tp_us[p - 1]);
    }
    checks.expect(c.icache_carry[1] != 0,
                  "%s shows no i-cache carryover at position 1 — the burst "
                  "avoided no misses",
                  name);
  }
  const LayoutCurve& bad = curves[1];
  const LayoutCurve& clo = curves[2];
  checks.expect(clo.tp_us.back() <= bad.tp_us.back() + 1e-9,
                "bipartite steady cost %.3f us exceeds BAD's %.3f us",
                clo.tp_us.back(), bad.tp_us.back());
  for (std::size_t b : kBatches) {
    checks.expect(
        burst_mean_us(clo.tp_us, b) <= burst_mean_us(bad.tp_us, b) + 1e-9,
        "bipartite batch-%zu mean exceeds BAD's", b);
  }
  // The measured fleet agrees with the fold: larger batches never raise
  // the mean.
  const auto& rows = fleet.fleet;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    checks.expect(rows[i].latency.mean <= rows[i - 1].latency.mean + 1e-9,
                  "fleet mean rose from batch %zu (%.3f us) to batch %zu "
                  "(%.3f us)",
                  rows[i - 1].spec.batch, rows[i - 1].latency.mean,
                  rows[i].spec.batch, rows[i].latency.mean);
  }
}

// --- 4. recovery latency -----------------------------------------------------

void recovery_grid(Checks& checks) {
  const Scenario scenarios[] = {
      {"blackout", "link_down@20000 link_up@120000", false},
      {"crash", "crash@20000:server reboot@220000:server", true},
  };
  const Scheme schemes[] = {Scheme::kOneBehind, Scheme::kLru};
  const C layouts[] = {C::Pin(), C::All()};
  const auto label = [](const C& cfg, Scheme scheme, const Scenario& sc) {
    return cfg.name + "/" + code::to_string(scheme) + "/" + sc.name;
  };

  // Each layout's rows run under, and are written with, its own table.
  std::vector<harness::RecoveryResult> rows;
  for (const C& cfg : layouts) {
    std::string name = cfg.name;
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    harness::RecoveryRunSpec run;
    run.costs = harness::measure_burst_costs(kTcpIp, cfg, 1);
    run.common.out_path =
        (kOut / ("recovery_latency_" + name + ".json")).string();
    for (Scheme scheme : schemes) {
      for (const Scenario& sc : scenarios) {
        harness::RecoverySpec spec;
        spec.fleet = fleet_row(cfg, kDisruptedPackets, 8, 1.1);
        spec.fleet.scheme = scheme;
        spec.fleet.label = label(cfg, scheme, sc);
        spec.chaos = net::ChaosTimeline::parse(sc.script);
        if (sc.crash) {
          // Reap half-open remnants fast enough that a silent client
          // (fully ACKed, waiting on a delivery that died with the server)
          // notices the crash and reconnects.
          spec.keepalive_idle_us = 50'000;
          spec.keepalive_intvl_us = 25'000;
          spec.keepalive_probes = 2;
        }
        run.rows.push_back(std::move(spec));
      }
    }
    const harness::Outcome o = harness::run(run);
    rerun_on_one_worker(checks, run, o, "recovery " + cfg.name);
    rows.insert(rows.end(), o.recovery.begin(), o.recovery.end());
  }

  harness::Table t("Recovery latency under scripted failures (" +
                   std::to_string(kDisruptedPackets) +
                   " packets/row, 8 conns, capacity 8, zipf 1.1)");
  t.columns({"row", "lost", "reconn", "ttr [us]", "steady p99", "steady p999",
             "recov p99", "recov p999"});
  for (const auto& r : rows) {
    t.row({label_of(r), std::to_string(r.fleet.lost_packets),
           std::to_string(r.fleet.reconnects), fmt(max_ttr(r), 1),
           fmt(r.steady.p99, 1), fmt(r.steady.p999, 1),
           fmt(r.recovery.p99, 1), fmt(r.recovery.p999, 1)});
  }
  t.print();

  for (const auto& r : rows) {
    const char* name = label_of(r).c_str();
    const std::string verdict = harness::recovery_error(r);
    checks.expect(verdict.empty(), "%s", verdict.c_str());
    // One-behind thrashes on the 8-flow interleave even in steady state
    // (its steady p999 is the miss path), so the contrast is asserted for
    // LRU, whose steady phase is all warm hits: the crash must price the
    // flushed cache and the reconnect storm above it.
    const bool lru_crash =
        label_of(r).find("/crash") != std::string::npos &&
        label_of(r).find("/lru/") != std::string::npos;
    checks.expect(!lru_crash || r.recovery.p999 > r.steady.p999,
                  "%s recovery p999 %.2f us not above steady p999 %.2f us — "
                  "the reconnect storm priced nothing",
                  name, r.recovery.p999, r.steady.p999);
  }
  // Time-to-recover is wire- and timer-driven; a better cache must not
  // slow it.
  for (const C& cfg : layouts) {
    for (const Scenario& sc : scenarios) {
      const double ttr_ob =
          max_ttr(by_label(rows, label(cfg, Scheme::kOneBehind, sc)));
      const double ttr_lru =
          max_ttr(by_label(rows, label(cfg, Scheme::kLru, sc)));
      checks.expect(ttr_lru <= ttr_ob + 1e-9,
                    "%s/%s LRU ttr %.1f us slower than one-behind %.1f us",
                    cfg.name.c_str(), sc.name, ttr_lru, ttr_ob);
    }
  }
}

// --- 5. LB failover ----------------------------------------------------------

void lb_grid(Checks& checks) {
  const Scenario scenarios[] = {
      {"quiet", "", false},
      {"drain", "drain@20000:backend1 undrain@220000:backend1", false},
      {"crash", "crash@20000:backend0 reboot@320000:backend0", true},
  };
  const std::size_t pools[] = {4, 8};

  harness::LbRunSpec run;
  run.costs = harness::measure_lb_costs(C::Pin());
  run.common.out_path = (kOut / "lb_failover.json").string();
  for (std::size_t n : pools) {
    for (const Scenario& sc : scenarios) {
      // The conn track keeps the LB's own capacity default.
      harness::LbSpec spec;
      spec.fleet.config = C::Pin();
      spec.backends = n;
      spec.fleet.connections = 8;
      spec.fleet.packets = kDisruptedPackets;
      spec.fleet.zipf_s = 1.1;
      spec.fleet.seed = 42;
      if (sc.script[0] != '\0') {
        spec.chaos = net::ChaosTimeline::parse(sc.script);
      }
      spec.fleet.label = "pin/b" + std::to_string(n) + "/" + sc.name;
      run.rows.push_back(std::move(spec));
    }
  }
  const harness::Outcome o = harness::run(run);
  const std::vector<harness::LbResult>& rows = o.lb;

  // A quiet row has no window and no disrupted sample: it prints "-".
  harness::Table t("LB failover under scripted backend failures (" +
                   std::to_string(kDisruptedPackets) +
                   " packets/row, 8 conns, zipf 1.1, pinned layout)");
  t.columns({"row", "lost", "reconn", "slow", "tta [us]", "ttr [us]",
             "steady p999", "disrupted p999"});
  for (const auto& r : rows) {
    double tta = 0, ttr = 0;
    for (const auto& w : r.windows) {
      tta = std::max(tta, w.tta_us);
      ttr = std::max(ttr, w.ttr_us);
    }
    const bool windowed = !r.windows.empty();
    t.row({label_of(r), std::to_string(r.fleet.lost_packets),
           std::to_string(r.fleet.reconnects), std::to_string(r.slow_forwards),
           windowed ? fmt(tta, 1) : "-", windowed ? fmt(ttr, 1) : "-",
           fmt(r.steady.p999, 1),
           r.disrupted_samples != 0 ? fmt(r.disrupted.p999, 1) : "-"});
  }
  t.print();

  for (const auto& r : rows) {
    checks.expect_conserved(r.fleet);
    for (const net::LbRebuild& rb : r.rebuilds) {
      // A removal leaves pool_size alive of pool_size + 1; a restore brings
      // the pool to pool_size.  Either way one backend of n moved, so ~1/n
      // of the table must change owner.
      const bool removal = rb.cause == net::LbRebuildCause::kDrain ||
                           rb.cause == net::LbRebuildCause::kHealthDown;
      const std::size_t n = removal ? rb.pool_size + 1 : rb.pool_size;
      const double f = static_cast<double>(rb.remapped) /
                       static_cast<double>(r.spec.maglev_table_size);
      const double want = 1.0 / static_cast<double>(n);
      checks.expect(std::fabs(f - want) <= 0.5 * want + 0.02,
                    "%s rebuild (%s backend%u) remapped %.3f of the table, "
                    "expected ~%.3f",
                    label_of(r).c_str(), net::to_string(rb.cause), rb.backend,
                    f, want);
    }
  }

  const auto n = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  for (std::size_t pool : pools) {
    const std::string prefix = "pin/b" + std::to_string(pool) + "/";
    const harness::LbResult& quiet = by_label(rows, prefix + "quiet");
    const harness::LbResult& drain = by_label(rows, prefix + "drain");
    const harness::LbResult& crash = by_label(rows, prefix + "crash");

    checks.expect(quiet.fleet.lost_packets == 0 && quiet.rebuilds.empty() &&
                      quiet.slow_forwards == 0,
                  "%s quiet row disrupted itself", label_of(quiet).c_str());
    checks.expect(drain.fleet.lost_packets == 0 &&
                      drain.fleet.reconnects == 0 &&
                      drain.slow_forwards == 0 &&
                      drain.fleet.cache.stale_hits == 0,
                  "%s drain not hitless (lost=%llu reconn=%llu slow=%llu "
                  "stale=%llu)",
                  label_of(drain).c_str(), n(drain.fleet.lost_packets),
                  n(drain.fleet.reconnects), n(drain.slow_forwards),
                  n(drain.fleet.cache.stale_hits));
    for (const auto& w : drain.windows) {
      checks.expect(w.steered_away && w.tta_us == 0.0 && w.restored,
                    "%s drain window not hitless-steered",
                    label_of(drain).c_str());
    }

    checks.expect(
        crash.fleet.lost_packets <= 4 * crash.spec.fleet.connections,
        "%s crash lost %llu packets (> 4/conn)", label_of(crash).c_str(),
        n(crash.fleet.lost_packets));
    const net::LbHealthParams& h = crash.spec.health;
    const double detect_budget =
        static_cast<double>((h.fail_threshold + 2) * h.interval_us);
    for (const auto& w : crash.windows) {
      checks.expect(w.steered_away && w.tta_us >= 0 &&
                        w.tta_us <= detect_budget,
                    "%s crash steer-away %.1f us outside the detection "
                    "budget %.1f us",
                    label_of(crash).c_str(), w.tta_us, detect_budget);
      checks.expect(w.restored, "%s crash window never restored",
                    label_of(crash).c_str());
    }
    // The stale-rebind slow path prices real work into the tail.
    checks.expect(crash.fleet.latency.p999 > quiet.fleet.latency.p999,
                  "%s p999 %.2f us not above the quiet row's %.2f us — the "
                  "failover priced nothing",
                  label_of(crash).c_str(), crash.fleet.latency.p999,
                  quiet.fleet.latency.p999);
  }

  const harness::Outcome again = rerun_on_one_worker(checks, run, o, "LB");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    checks.expect(
        again.lb[i].fleet.sample_digest == rows[i].fleet.sample_digest,
        "%s digest differs across worker counts", label_of(rows[i]).c_str());
  }
}

// --- 6. classifier scale -----------------------------------------------------

struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1Dull;
  }
};

harness::Json engine_json(const harness::ClassifierCostMeasurement& m) {
  return harness::Json::object()
      .set("tp_hit_us", m.hit.tp_us)
      .set("tp_match_us", m.miss_match.tp_us)
      .set("tp_nomatch_us", m.miss_nomatch.tp_us)
      .set("hit_us", m.costs.hit_us)
      .set("probe_us", m.costs.probe_us)
      .set("per_rule_us", m.costs.per_rule_us)
      .set("rules_match",
           static_cast<std::uint64_t>(m.scan_match.rules_examined))
      .set("rules_nomatch",
           static_cast<std::uint64_t>(m.scan_nomatch.rules_examined))
      .set("tuples_probed_match",
           static_cast<std::uint64_t>(m.scan_match.tuples_probed))
      .set("candidates_match",
           static_cast<std::uint64_t>(m.scan_match.candidates_verified));
}

/// The four lookup measurements at one decoy rule count: ALL feeds the
/// engine and cache crossovers and the fleet grid; ALL and PIN both feed
/// the break-even against CLO.
struct RuleRow {
  std::size_t rules = 0;
  harness::ClassifierCostMeasurement lin, tup, pin_lin, pin_tup;
  bool auto_tuple = false;  ///< engine kAuto resolves to the tuple space

  const code::FlowCacheCosts& auto_costs() const {
    return auto_tuple ? tup.costs : lin.costs;
  }
  const harness::ClassifierCostMeasurement& measured(bool pin,
                                                     bool tuple) const {
    return pin ? (tuple ? pin_tup : pin_lin) : (tuple ? tup : lin);
  }
};

/// Smallest swept rule count where Te + 2 x per-packet cost reaches CLO's
/// Te (-1: never), per layout, engine and mode.
struct BreakEven {
  const char* layout;
  double te_us;
  bool pin;
  /// [engine: linear, tuple][mode: scan, hit] -> rule count or -1.
  std::int64_t rules[2][2];
};

/// Tuple == linear on seeded fuzz frames (mutants of the canonical match
/// frame, truncations, random frames); returns the frames tried.
std::uint64_t fuzz_engines(Checks& checks, std::size_t rules,
                           std::uint64_t rule_seed, std::uint64_t& mismatches) {
  const code::PacketClassifier cls = proto::build_scaled_classifier(
      proto::RuleSetKind::kTcpIp, rules, rule_seed);
  Rng rng(0x5EEDBA5Eull + rules);
  const std::vector<std::uint8_t> match =
      harness::classifier_match_frame(kTcpIp);
  std::uint64_t frames = 0;
  for (int i = 0; i < 600; ++i) {
    ++frames;
    std::vector<std::uint8_t> f;
    switch (i % 3) {
      case 0:  // mutant of the canonical match frame
        f = match;
        for (int m = 0; m < 1 + static_cast<int>(rng.next() % 4); ++m) {
          f[rng.next() % f.size()] = static_cast<std::uint8_t>(rng.next());
        }
        break;
      case 1:  // truncation (short frames must classify identically)
        f = match;
        f.resize(rng.next() % (f.size() + 1));
        break;
      default:  // fully random frame
        f.resize(8 + rng.next() % 80);
        for (auto& b : f) b = static_cast<std::uint8_t>(rng.next());
        break;
    }
    const code::ClassifyScan lin = cls.classify_scan_linear(f);
    const code::ClassifyScan tup = cls.classify_scan_tuple(f);
    // Report at most eight disagreements.
    if (lin.path_id != tup.path_id && ++mismatches <= 8) {
      checks.expect(false, "engines disagree at %zu rules, frame %d: linear "
                           "%d tuple %d",
                    rules, i, lin.path_id.value_or(-1),
                    tup.path_id.value_or(-1));
    }
  }
  return frames;
}

/// The profiled replay's owner rows sum to its aggregate CacheStats, and
/// classify_* owners take misses.
void check_owner_rows(Checks& checks, const sim::MissProfile& p,
                      const sim::RunResult& r, const char* what) {
  const auto section = [&](const sim::MissProfile::Section& s,
                           std::uint64_t misses, std::uint64_t repl,
                           const char* cache) {
    std::uint64_t om = 0, orp = 0;
    for (const auto& o : s.owners) {
      om += o.misses;
      orp += o.repl_misses;
    }
    const auto n = [](std::uint64_t v) {
      return static_cast<unsigned long long>(v);
    };
    checks.expect(om == s.misses && orp == s.repl_misses &&
                      s.misses == misses && s.repl_misses == repl,
                  "%s %s owner rows (%llu/%llu) != section (%llu/%llu) != "
                  "aggregate (%llu/%llu)",
                  what, cache, n(om), n(orp), n(s.misses), n(s.repl_misses),
                  n(misses), n(repl));
  };
  section(p.icache, r.icache.misses, r.icache.repl_misses, "icache");
  section(p.dcache, r.dcache_reads.misses, r.dcache_reads.repl_misses,
          "dcache");
  const bool classify_owner =
      std::any_of(p.icache.owners.begin(), p.icache.owners.end(),
                  [](const auto& o) {
                    return o.name.rfind("classify_", 0) == 0 && o.misses > 0;
                  });
  checks.expect(classify_owner,
                "%s has no classify_* owner row with misses — the lookup's "
                "code is not attributed",
                what);
}

void classifier_scale(Checks& checks, const harness::BurstCostTable& costs) {
  const C all = C::All(), pin = C::Pin();
  const std::size_t rule_counts[] = {0, 16, 256, 2048};
  const std::size_t max_rules = 2048;
  const std::uint64_t rule_seed = 1;
  using Engine = code::PacketClassifier::Engine;
  const auto measure = [&](const C& cfg, std::size_t rules, Engine engine,
                           bool profile = false) {
    harness::ClassifierCostSpec cs;
    cs.kind = kTcpIp;
    cs.cfg = cfg;
    cs.rules = rules;
    cs.rule_seed = rule_seed;
    cs.engine = engine;
    cs.profile_misses = profile;
    return harness::measure_classifier_costs(cs);
  };

  std::vector<RuleRow> rrows;
  for (std::size_t r : rule_counts) {
    RuleRow row;
    row.rules = r;
    row.lin = measure(all, r, Engine::kLinear);
    row.tup = measure(all, r, Engine::kTuple);
    row.pin_lin = measure(pin, r, Engine::kLinear);
    row.pin_tup = measure(pin, r, Engine::kTuple);
    row.auto_tuple = proto::build_scaled_classifier(proto::RuleSetKind::kTcpIp,
                                                    r, rule_seed)
                         .tuple_active();
    rrows.push_back(std::move(row));
  }
  const RuleRow& top = rrows.back();

  // The measurement is a pure function of its spec.
  {
    const code::FlowCacheCosts again =
        measure(all, max_rules, Engine::kTuple).costs;
    const code::FlowCacheCosts& first = top.tup.costs;
    checks.expect(again.hit_us == first.hit_us &&
                      again.probe_us == first.probe_us &&
                      again.per_rule_us == first.per_rule_us,
                  "re-measuring %zu rules changed the fit (%.17g/%.17g/%.17g "
                  "vs %.17g/%.17g/%.17g)",
                  max_rules, again.hit_us, again.probe_us, again.per_rule_us,
                  first.hit_us, first.probe_us, first.per_rule_us);
  }

  std::uint64_t fuzz_frames = 0, fuzz_mismatches = 0;
  for (const RuleRow& row : rrows) {
    fuzz_frames += fuzz_engines(checks, row.rules, rule_seed, fuzz_mismatches);
  }

  // The tuple machinery pays for itself by the largest count; report the
  // smallest count where it first does.
  std::int64_t engine_crossover = -1;
  for (const RuleRow& row : rrows) {
    if (row.tup.miss_match.tp_us < row.lin.miss_match.tp_us) {
      engine_crossover = static_cast<std::int64_t>(row.rules);
      break;
    }
  }
  checks.expect(top.tup.miss_match.tp_us < top.lin.miss_match.tp_us,
                "at %zu rules the tuple match scan (%.3f us) is not cheaper "
                "than the linear one (%.3f us)",
                max_rules, top.tup.miss_match.tp_us, top.lin.miss_match.tp_us);

  {
    const harness::ClassifierCostMeasurement prof =
        measure(all, max_rules, Engine::kTuple, /*profile=*/true);
    const auto& m = prof.miss_nomatch;
    checks.expect(m.miss_cold && m.miss_steady,
                  "profile_misses produced no profiles");
    if (m.miss_cold && m.miss_steady) {
      check_owner_rows(checks, *m.miss_cold, m.cold, "nomatch/cold");
      check_owner_rows(checks, *m.miss_steady, m.steady, "nomatch/steady");
    }
  }

  // Fleet grid: rule count x skew under the measured coefficients.
  harness::FleetRunSpec grid;
  grid.costs = costs;
  for (const RuleRow& row : rrows) {
    for (double skew : kSkews) {
      harness::FleetSpec spec = fleet_row(all, kClassifierPackets, 32, skew);
      spec.cache_costs = row.auto_costs();
      spec.rules = row.rules;
      spec.rule_seed = rule_seed;
      char label[64];
      std::snprintf(label, sizeof(label), "r%zu/s%.1f", row.rules, skew);
      spec.label = label;
      grid.rows.push_back(std::move(spec));
    }
  }
  const harness::Outcome fleet = harness::run(grid);
  rerun_on_one_worker(checks, grid, fleet, "classifier fleet");
  const std::vector<harness::FleetResult>& rows = fleet.fleet;
  const auto avg_lookup_us = [](const harness::FleetResult& r) {
    return r.cache.lookups != 0
               ? r.cache.cost_us / static_cast<double>(r.cache.lookups)
               : 0.0;
  };
  for (const auto& r : rows) {
    checks.expect_conserved(r);
    checks.expect(r.cache.unmatched_scans == 0,
                  "%s shows %llu unmatched scans — a decoy path shadowed "
                  "fleet traffic or the real path stopped matching",
                  r.spec.label.c_str(),
                  static_cast<unsigned long long>(r.cache.unmatched_scans));
  }

  // The LRU cache pays for itself against the always-scan linear engine on
  // every skewed max-rule row; report the smallest count where it first
  // does on every skewed row.
  std::int64_t cache_crossover = -1;
  for (const RuleRow& row : rrows) {
    const double always_scan =
        row.lin.costs.probe_us +
        row.lin.costs.per_rule_us *
            static_cast<double>(row.lin.scan_match.rules_examined);
    bool wins_all_skewed = true;
    for (const auto& r : rows) {
      if (r.spec.rules != row.rules || r.spec.zipf_s <= 0.0) continue;
      const bool wins = avg_lookup_us(r) < always_scan;
      wins_all_skewed = wins_all_skewed && wins;
      checks.expect(row.rules != max_rules || wins,
                    "%s cached average %.3f us does not undercut the linear "
                    "always-scan %.3f us",
                    r.spec.label.c_str(), avg_lookup_us(r), always_scan);
    }
    if (cache_crossover < 0 && wins_all_skewed) {
      cache_crossover = static_cast<std::int64_t>(row.rules);
    }
  }

  // Break-even.  Te is the paper's zero-overhead-classifier roundtrip; a
  // path-inlined side classifies one inbound packet per roundtrip, so
  // charging both sides `cost` gives Te + 2 x cost.  A mode is a scan on
  // every packet (miss_match) or a flow-cache hit.
  const auto te_of = [](const C& c) {
    return harness::run_config(kTcpIp, c, c).te_us;
  };
  const double te_clo = te_of(C::Clo());
  const auto per_packet = [](const harness::ClassifierCostMeasurement& m,
                             bool hit) {
    return hit ? m.hit.tp_us : m.miss_match.tp_us;
  };
  const char* const engine_names[] = {"linear", "tuple"};
  std::vector<BreakEven> breaks = {{"PIN", te_of(pin), true, {}},
                                   {"ALL", te_of(all), false, {}}};
  for (BreakEven& b : breaks) {
    checks.expect(b.te_us < te_clo,
                  "%s Te %.3f us does not beat CLO's %.3f us with a free "
                  "classifier",
                  b.layout, b.te_us, te_clo);
    for (int e = 0; e < 2; ++e) {
      for (int mode = 0; mode < 2; ++mode) {
        b.rules[e][mode] = -1;
        for (const RuleRow& row : rrows) {
          if (b.te_us + 2.0 * per_packet(row.measured(b.pin, e == 1),
                                         mode == 1) >=
              te_clo) {
            b.rules[e][mode] = static_cast<std::int64_t>(row.rules);
            break;
          }
        }
      }
      checks.expect(b.rules[e][1] == -1,
                    "%s/%s with a cache hit on both sides loses to CLO at "
                    "%lld rules",
                    b.layout, engine_names[e],
                    static_cast<long long>(b.rules[e][1]));
    }
    const double scan_max = per_packet(top.measured(b.pin, false), false);
    checks.expect(b.te_us + 2.0 * scan_max >= te_clo,
                  "%s with a %zu-rule linear scan per packet (%.3f us) still "
                  "beats CLO (%.3f vs %.3f us)",
                  b.layout, max_rules, scan_max, b.te_us + 2.0 * scan_max,
                  te_clo);
    for (std::size_t i = 1; i < rrows.size(); ++i) {
      const double lo = rrows[i - 1].measured(b.pin, false).miss_match.tp_us;
      const double hi = rrows[i].measured(b.pin, false).miss_match.tp_us;
      checks.expect(hi > lo,
                    "%s linear match scan does not rise from %zu to %zu "
                    "rules (%.3f -> %.3f us)",
                    b.layout, rrows[i - 1].rules, rrows[i].rules, lo, hi);
    }
  }

  harness::Table t("Classifier scale: measured lookup costs (TCP/IP ALL, "
                   "seed " + std::to_string(rule_seed) + ")");
  t.columns({"rules", "paths", "tuples", "auto", "lin match [us]",
             "tup match [us]", "lin per-rule [us]", "hit [us]"});
  for (const RuleRow& r : rrows) {
    t.row({std::to_string(r.rules), std::to_string(r.lin.num_paths),
           std::to_string(r.tup.num_tuples), r.auto_tuple ? "tuple" : "linear",
           fmt(r.lin.miss_match.tp_us, 3), fmt(r.tup.miss_match.tp_us, 3),
           fmt(r.lin.costs.per_rule_us, 4), fmt(r.auto_costs().hit_us, 3)});
  }
  t.print();
  harness::Table ft("LRU fleet grid: " + std::to_string(kClassifierPackets) +
                    " packets/row, 32 connections, capacity 8");
  ft.columns({"row", "hit%", "avg lookup [us]", "p50 [us]", "p99 [us]"});
  for (const auto& r : rows) {
    ft.row({r.spec.label, fmt(100.0 * r.cache.hit_ratio(), 1),
            fmt(avg_lookup_us(r), 3), fmt(r.latency.p50, 1),
            fmt(r.latency.p99, 1)});
  }
  ft.print();
  std::printf("engine crossover: tuple pays for itself at %lld rules; "
              "LRU cache beats the linear always-scan at %lld rules\n\n",
              static_cast<long long>(engine_crossover),
              static_cast<long long>(cache_crossover));
  harness::Table bt("Break-even vs CLO (TCP/IP, CLO Te " + fmt(te_clo, 2) +
                    " us): smallest rule count where Te + 2 x per-packet "
                    "cost >= CLO Te (-1: never)");
  bt.columns({"layout", "Te [us]", "margin/side [us]", "engine",
              "scan@" + std::to_string(max_rules) + " [us]",
              "hit@" + std::to_string(max_rules) + " [us]", "scan b/e",
              "hit b/e"});
  for (const BreakEven& b : breaks) {
    for (int e = 0; e < 2; ++e) {
      const auto& m = top.measured(b.pin, e == 1);
      bt.row({b.layout, fmt(b.te_us, 2), fmt((te_clo - b.te_us) / 2.0, 2),
              engine_names[e], fmt(m.miss_match.tp_us, 3),
              fmt(m.hit.tp_us, 3), std::to_string(b.rules[e][0]),
              std::to_string(b.rules[e][1])});
    }
  }
  bt.print();

  harness::Json rows_json = harness::Json::array();
  for (const RuleRow& r : rrows) {
    rows_json.push_back(
        harness::Json::object()
            .set("rules", static_cast<std::uint64_t>(r.rules))
            .set("paths", static_cast<std::uint64_t>(r.lin.num_paths))
            .set("tuples", static_cast<std::uint64_t>(r.tup.num_tuples))
            .set("auto_engine", r.auto_tuple ? "tuple" : "linear")
            .set("linear", engine_json(r.lin))
            .set("tuple", engine_json(r.tup)));
  }
  harness::Json layouts = harness::Json::array();
  for (const BreakEven& b : breaks) {
    harness::Json costs_json = harness::Json::array();
    for (const RuleRow& r : rrows) {
      harness::Json row = harness::Json::object().set(
          "rules", static_cast<std::uint64_t>(r.rules));
      for (int e = 0; e < 2; ++e) {
        const auto& m = r.measured(b.pin, e == 1);
        row.set(engine_names[e], harness::Json::object()
                                     .set("scan_us", m.miss_match.tp_us)
                                     .set("hit_us", m.hit.tp_us));
      }
      costs_json.push_back(std::move(row));
    }
    harness::Json layout = harness::Json::object()
                               .set("config", b.layout)
                               .set("te_us", b.te_us)
                               .set("costs", std::move(costs_json));
    for (int e = 0; e < 2; ++e) {
      layout.set(engine_names[e], harness::Json::object()
                                      .set("scan_rules", b.rules[e][0])
                                      .set("hit_rules", b.rules[e][1]));
    }
    layouts.push_back(std::move(layout));
  }
  harness::write_json_file(
      kOut / "classifier_scale.json",
      harness::emit_section(
          "classifier", 1,
          harness::Json::object()
              .set("config", all.name)
              .set("kind", "tcpip")
              .set("rule_seed", rule_seed)
              .set("rows", std::move(rows_json))
              .set("crossover",
                   harness::Json::object()
                       .set("engine_rules", engine_crossover)
                       .set("cache_rules", cache_crossover))
              .set("fuzz", harness::Json::object()
                               .set("frames", fuzz_frames)
                               .set("mismatches", fuzz_mismatches))
              .set("fleet", fleet.section)
              .set("break_even", harness::Json::object()
                                     .set("clo_te_us", te_clo)
                                     .set("layouts", std::move(layouts)))));
}

}  // namespace

int main() {
  try {
    Checks checks;
    // The fleet, shard and classifier grids share ALL's 4-position table.
    const harness::BurstCostTable all4 =
        harness::measure_burst_costs(kTcpIp, C::All(), 4);
    fleet_grid(checks, all4);
    shard_grid(checks, all4);
    burst_amortization(checks);
    recovery_grid(checks);
    lb_grid(checks);
    classifier_scale(checks, all4);
    return checks.failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return 1;
  }
}
