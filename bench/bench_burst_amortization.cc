// bench_burst_amortization: cross-packet cache carryover under burst
// scheduling.
//
// The paper prices every packet as an independent steady-state activation:
// warm-up passes with a primary-cache scrub in between model the untraced
// code that runs between packets.  Batched packet delivery breaks that
// assumption — within a burst the activations run back to back, and each
// packet after the first inherits the i/d-cache residue its predecessor
// left behind.  This bench quantifies the effect per layout:
//
//  * For STD (link order), BAD (pessimal layout), CLO (bipartite
//    layout) and ALL (path-inlined + bipartite), replay an 8-position
//    activation stream of the server's receive path
//    (harness::measure_stream) and report the per-position cost plus the
//    MissProfiler's carryover attribution (hits on blocks an earlier
//    position filled = misses the burst avoided).
//  * Fold the curves into latency-vs-throughput points for batch sizes
//    1/4/16/64: mean per-packet cost of a burst, and the service
//    throughput it implies.
//  * Run a measured ALL fleet (run_fleet) over the same batch sizes as an
//    end-to-end cross-check of the analytic fold.
//
// Output: bench/out/burst_amortization.json, schema l96.burst.v1 (curves +
// batch table per layout, fleet rows under "fleet" as l96.fleet.v2).
//
// Exit status enforces the core claims:
//  * first-in-burst cost strictly greater than the steady amortized cost
//    for every layout,
//  * per-position costs monotone non-increasing within the burst,
//  * i-cache carryover strictly positive at position 1 for every layout,
//  * the bipartite layout amortizes no worse than BAD: its steady cost and
//    every batch mean stay at or below BAD's.
//
//   bench_burst_amortization [out-dir]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/runner.h"
#include "harness/tables.h"

using namespace l96;

namespace {

constexpr std::size_t kPositions = 8;
const std::size_t kBatches[] = {1, 4, 16, 64};

struct LayoutCurve {
  std::string name;
  std::vector<double> tp_us;                 // per-position cost
  std::vector<std::uint64_t> icache_carry;   // carryover hits per position
  std::vector<std::uint64_t> dcache_carry;
};

LayoutCurve measure_curve(const code::StackConfig& cfg) {
  harness::Experiment e(net::StackKind::kTcpIp, cfg, cfg);
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
    sum += tp_us[p < tp_us.size() ? p : tp_us.size() - 1];
  }
  return sum / static_cast<double>(batch);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = "bench/out";
  if (argc > 1) out_dir = argv[1];

  const std::vector<code::StackConfig> cfgs = {
      code::StackConfig::Std(), code::StackConfig::Bad(),
      code::StackConfig::Clo(), code::StackConfig::All()};

  std::vector<LayoutCurve> curves;
  for (const auto& cfg : cfgs) curves.push_back(measure_curve(cfg));

  // Per-position table.
  harness::Table pos_t(
      "Burst amortization: server receive activation cost by burst "
      "position (TCP/IP, 8-position stream)");
  {
    std::vector<std::string> cols = {"Version"};
    for (std::size_t p = 0; p < kPositions; ++p) {
      cols.push_back("p" + std::to_string(p) + " [us]");
    }
    cols.push_back("carry@p1");
    pos_t.columns(cols);
  }
  for (const auto& c : curves) {
    std::vector<std::string> row = {c.name};
    for (double v : c.tp_us) row.push_back(harness::fmt(v, 2));
    row.push_back(std::to_string(c.icache_carry[1] + c.dcache_carry[1]));
    pos_t.row(row);
  }
  pos_t.print();

  // Latency-vs-throughput fold.
  harness::Table batch_t("Burst fold: mean per-packet cost / implied "
                         "service throughput by batch size");
  batch_t.columns({"Version", "b1 [us]", "b4 [us]", "b16 [us]", "b64 [us]",
                   "b64 [kpps]"});
  for (const auto& c : curves) {
    std::vector<std::string> row = {c.name};
    for (std::size_t b : kBatches) {
      row.push_back(harness::fmt(burst_mean_us(c.tp_us, b), 2));
    }
    row.push_back(
        harness::fmt(1e3 / burst_mean_us(c.tp_us, 64), 1));
    batch_t.row(row);
  }
  batch_t.print();

  // Measured ALL fleet over the same batch axis (uniform draw so every
  // packet is a plain LRU hit: the batch size is the only moving part).
  const harness::BurstCostTable table = harness::measure_burst_costs(
      net::StackKind::kTcpIp, code::StackConfig::All(), kPositions);
  std::vector<harness::FleetSpec> fleet_specs;
  for (std::size_t b : kBatches) {
    harness::FleetSpec spec;
    spec.label = "all/b" + std::to_string(b);
    spec.kind = net::StackKind::kTcpIp;
    spec.config = code::StackConfig::All();
    spec.connections = 8;
    spec.packets = 128;
    spec.batch = b;
    spec.zipf_s = 0.0;
    spec.seed = 42;
    spec.scheme = code::FlowCacheScheme::kLru;
    spec.cache_capacity = 8;
    fleet_specs.push_back(std::move(spec));
  }
  harness::FleetRunSpec fleet_run;
  fleet_run.rows = fleet_specs;
  fleet_run.costs = table;
  const std::vector<harness::FleetResult> fleet_rows =
      harness::run(fleet_run).fleet;

  harness::Table fleet_t("Measured ALL fleet, 128 packets, 8 connections, "
                         "uniform draw");
  fleet_t.columns({"batch", "p50 [us]", "mean [us]", "max [us]"});
  for (const auto& r : fleet_rows) {
    fleet_t.row({std::to_string(r.spec.batch), harness::fmt(r.latency.p50, 2),
                 harness::fmt(r.latency.mean, 2),
                 harness::fmt(r.latency.max, 2)});
  }
  fleet_t.print();

  // JSON emission.
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
  section.set("fleet", harness::fleet_json(table, fleet_rows));

  const std::filesystem::path out_path =
      std::filesystem::path(out_dir) / "burst_amortization.json";
  harness::write_json_file(out_path, section);
  std::printf("wrote %s\n", out_path.string().c_str());

  // --- invariants ----------------------------------------------------------
  int failures = 0;
  for (const auto& c : curves) {
    if (!(c.tp_us.front() > c.tp_us.back())) {
      std::fprintf(stderr,
                   "FAIL: %s first-in-burst cost %.3f us is not strictly "
                   "above the steady amortized cost %.3f us\n",
                   c.name.c_str(), c.tp_us.front(), c.tp_us.back());
      ++failures;
    }
    for (std::size_t p = 1; p < c.tp_us.size(); ++p) {
      if (c.tp_us[p] > c.tp_us[p - 1] + 1e-9) {
        std::fprintf(stderr,
                     "FAIL: %s position %zu (%.3f us) priced above position "
                     "%zu (%.3f us)\n",
                     c.name.c_str(), p, c.tp_us[p], p - 1, c.tp_us[p - 1]);
        ++failures;
      }
    }
    if (c.icache_carry[1] == 0) {
      std::fprintf(stderr,
                   "FAIL: %s shows no i-cache carryover at position 1 — the "
                   "burst avoided no misses\n",
                   c.name.c_str());
      ++failures;
    }
  }
  const LayoutCurve* bad = nullptr;
  const LayoutCurve* clo = nullptr;
  for (const auto& c : curves) {
    if (c.name == "BAD") bad = &c;
    if (c.name == "CLO") clo = &c;
  }
  if (bad != nullptr && clo != nullptr) {
    if (clo->tp_us.back() > bad->tp_us.back() + 1e-9) {
      std::fprintf(stderr,
                   "FAIL: bipartite steady cost %.3f us exceeds BAD's "
                   "%.3f us\n",
                   clo->tp_us.back(), bad->tp_us.back());
      ++failures;
    }
    for (std::size_t b : kBatches) {
      if (burst_mean_us(clo->tp_us, b) >
          burst_mean_us(bad->tp_us, b) + 1e-9) {
        std::fprintf(stderr,
                     "FAIL: bipartite batch-%zu mean exceeds BAD's\n", b);
        ++failures;
      }
    }
  }
  // The measured fleet must agree with the fold: larger batches never
  // raise the mean.
  for (std::size_t i = 1; i < fleet_rows.size(); ++i) {
    if (fleet_rows[i].latency.mean > fleet_rows[i - 1].latency.mean + 1e-9) {
      std::fprintf(stderr,
                   "FAIL: fleet mean rose from batch %zu (%.3f us) to batch "
                   "%zu (%.3f us)\n",
                   fleet_rows[i - 1].spec.batch,
                   fleet_rows[i - 1].latency.mean, fleet_rows[i].spec.batch,
                   fleet_rows[i].latency.mean);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
