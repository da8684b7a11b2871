// bench_classifier_scale: classification cost at production rule counts.
//
// The paper prices the path-inlining classifier at a flat 1-4 us constant;
// the repo's flow-cache model refined that to analytic per-rule
// coefficients — still constants, and still a mispricing once the rule
// table grows to thousands of paths: the real cost depends on which engine
// scans (linear vs tuple space) and on how much of the rule table and
// probe machinery the simulated caches hold.  This bench sweeps decoy rule
// counts (protocols/rulegen.h) and, per count, *measures* the three
// canonical lookup activations (cache hit / match scan / no-match scan)
// under both forced engines by replaying their traced code through the
// machine model (harness/classify.h), then runs an LRU-flow-cache fleet
// grid (rule count x Zipf skew) priced from the fitted coefficients.
//
// It also answers the paper's zero-overhead-classifier caveat (§3.3) from
// the measurements: the same rule counts are measured under PIN too, and
// for PIN and ALL, each engine, and each mode (scan every packet / flow-
// cache hit) the bench reports the break-even — the smallest swept rule
// count where Te(layout) + 2 x per-packet cost >= Te(CLO), or -1.
//
// Output: bench/out/classifier_scale.json — an `l96.classifier.v1` section
// carrying the per-rule-count measurements, both crossovers, the fuzz
// verdict, the fleet grid as an embedded `l96.fleet.v2` section, and the
// `break_even` object (CLO Te, per-layout Te, costs and break-evens).  A
// pure function of the seeds: byte-identical across runs and across
// runner worker counts (enforced below by running the grid at 1 and 2
// workers and comparing the serialized sections).
//
// Exit status enforces:
//  1. tuple == linear decisions on every swept rule count, over seeded
//     fuzz frames (mutants of the canonical match frame, truncations,
//     random frames) — the tuple engine may never change a classification;
//  2. engine crossover: at the largest rule count the measured tuple-space
//     match scan is cheaper than the measured linear match scan (reported:
//     the smallest swept count where the tuple machinery pays for itself);
//  3. LRU-flow-cache crossover: on every skewed max-rule-count row the
//     cached average per-lookup cost undercuts the always-scan cost of the
//     legacy linear engine (reported: the smallest count where the cache
//     pays for itself);
//  4. classifier-owner miss attribution conserves: the profiled replay's
//     owner rows sum exactly to the aggregate CacheStats of the same
//     replay, and the classify_* owners appear in them;
//  5. fleet packet/scan accounting: packet conservation per row and zero
//     unmatched scans (every fleet frame matches the real fast path; decoys
//     by construction never match harness traffic);
//  6. determinism: re-measuring a rule count reproduces the fitted
//     coefficients bit for bit;
//  7. PIN and ALL beat CLO at zero classification cost;
//  8. with a flow-cache hit charged on both sides they still beat CLO at
//     every swept rule count, under either engine;
//  9. with a linear match scan on every packet they lose to CLO by the
//     largest swept rule count;
// 10. the linear match-scan cost strictly rises with rule count (PIN and
//     ALL).
//
//   bench_classifier_scale [packets-per-row] [out-dir]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "code/classifier.h"
#include "harness/classify.h"
#include "harness/json.h"
#include "harness/runner.h"
#include "harness/tables.h"
#include "protocols/rulegen.h"
#include "sim/miss_profiler.h"

using namespace l96;

namespace {

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

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t packets = 192;
  std::string out_dir = "bench/out";
  if (argc > 1) packets = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) out_dir = argv[2];
  if (packets == 0) {
    std::fprintf(stderr,
                 "usage: bench_classifier_scale [packets>0] [out-dir]\n");
    return 2;
  }

  const code::StackConfig cfg = code::StackConfig::All();
  const code::StackConfig pin_cfg = code::StackConfig::Pin();
  const std::size_t rule_counts[] = {0, 16, 256, 2048};
  const std::size_t max_rules = 2048;
  const double skews[] = {0.0, 1.2};
  const std::uint64_t rule_seed = 1;
  int failures = 0;
  using Engine = code::PacketClassifier::Engine;
  const auto cost_spec = [&](const code::StackConfig& c, std::size_t rules,
                             Engine engine) {
    harness::ClassifierCostSpec cs;
    cs.kind = net::StackKind::kTcpIp;
    cs.cfg = c;
    cs.rules = rules;
    cs.rule_seed = rule_seed;
    cs.engine = engine;
    return cs;
  };

  // --- per-rule-count measurements -----------------------------------------
  // ALL (lin/tup) feeds the engine and cache crossovers and the fleet grid;
  // ALL and PIN both feed the break-even against CLO.
  struct RuleRow {
    std::size_t rules = 0;
    harness::ClassifierCostMeasurement lin;
    harness::ClassifierCostMeasurement tup;
    harness::ClassifierCostMeasurement pin_lin;
    harness::ClassifierCostMeasurement pin_tup;
    bool auto_tuple = false;  ///< engine kAuto resolves to the tuple space
  };
  std::vector<RuleRow> rrows;
  for (std::size_t r : rule_counts) {
    RuleRow row;
    row.rules = r;
    row.lin = harness::measure_classifier_costs(
        cost_spec(cfg, r, Engine::kLinear));
    row.tup =
        harness::measure_classifier_costs(cost_spec(cfg, r, Engine::kTuple));
    row.pin_lin = harness::measure_classifier_costs(
        cost_spec(pin_cfg, r, Engine::kLinear));
    row.pin_tup = harness::measure_classifier_costs(
        cost_spec(pin_cfg, r, Engine::kTuple));
    row.auto_tuple =
        proto::build_scaled_classifier(proto::RuleSetKind::kTcpIp, r,
                                       rule_seed)
            .tuple_active();
    rrows.push_back(std::move(row));
  }
  const auto auto_costs = [](const RuleRow& r) -> const code::FlowCacheCosts& {
    return r.auto_tuple ? r.tup.costs : r.lin.costs;
  };

  // Invariant 6: the measurement is a pure function of its spec.
  {
    const harness::ClassifierCostMeasurement again =
        harness::measure_classifier_costs(
            cost_spec(cfg, max_rules, Engine::kTuple));
    const auto& first = rrows.back().tup.costs;
    if (again.costs.hit_us != first.hit_us ||
        again.costs.probe_us != first.probe_us ||
        again.costs.per_rule_us != first.per_rule_us) {
      std::fprintf(stderr,
                   "FAIL: re-measuring %zu rules changed the fit "
                   "(%.17g/%.17g/%.17g vs %.17g/%.17g/%.17g)\n",
                   max_rules, again.costs.hit_us, again.costs.probe_us,
                   again.costs.per_rule_us, first.hit_us, first.probe_us,
                   first.per_rule_us);
      ++failures;
    }
  }

  // Invariant 1: differential fuzz — tuple == linear on every rule count.
  std::uint64_t fuzz_frames = 0, fuzz_mismatches = 0;
  for (const RuleRow& row : rrows) {
    const code::PacketClassifier cls = proto::build_scaled_classifier(
        proto::RuleSetKind::kTcpIp, row.rules, rule_seed);
    Rng rng(0x5EEDBA5Eull + row.rules);
    const std::vector<std::uint8_t> match =
        harness::classifier_match_frame(net::StackKind::kTcpIp);
    for (int i = 0; i < 600; ++i) {
      std::vector<std::uint8_t> f;
      switch (i % 3) {
        case 0:  // mutant of the canonical match frame
          f = match;
          for (int m = 0; m < 1 + static_cast<int>(rng.next() % 4); ++m) {
            f[rng.next() % f.size()] =
                static_cast<std::uint8_t>(rng.next());
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
      ++fuzz_frames;
      const code::ClassifyScan lin = cls.classify_scan_linear(f);
      const code::ClassifyScan tup = cls.classify_scan_tuple(f);
      if (lin.path_id != tup.path_id) {
        ++fuzz_mismatches;
        if (fuzz_mismatches <= 8) {
          std::fprintf(stderr,
                       "FAIL: engines disagree at %zu rules, frame %d: "
                       "linear %d tuple %d\n",
                       row.rules, i, lin.path_id.value_or(-1),
                       tup.path_id.value_or(-1));
        }
      }
    }
  }
  if (fuzz_mismatches != 0) ++failures;

  // Invariant 2: the tuple machinery pays for itself by the largest count.
  std::int64_t engine_crossover = -1;
  for (const RuleRow& row : rrows) {
    if (row.tup.miss_match.tp_us < row.lin.miss_match.tp_us) {
      engine_crossover = static_cast<std::int64_t>(row.rules);
      break;
    }
  }
  if (!(rrows.back().tup.miss_match.tp_us <
        rrows.back().lin.miss_match.tp_us)) {
    std::fprintf(stderr,
                 "FAIL: at %zu rules the tuple match scan (%.3f us) is not "
                 "cheaper than the linear one (%.3f us)\n",
                 max_rules, rrows.back().tup.miss_match.tp_us,
                 rrows.back().lin.miss_match.tp_us);
    ++failures;
  }

  // Invariant 4: classifier-owner miss attribution conserves against the
  // same replay's aggregate CacheStats, and the classify_* owners appear.
  {
    harness::ClassifierCostSpec cs =
        cost_spec(cfg, max_rules, Engine::kTuple);
    cs.profile_misses = true;
    const harness::ClassifierCostMeasurement prof =
        harness::measure_classifier_costs(cs);
    const auto check = [&](const sim::MissProfile& p, const sim::RunResult& r,
                           const char* what) {
      const auto section = [&](const sim::MissProfile::Section& s,
                               std::uint64_t misses, std::uint64_t repl,
                               const char* cache) {
        std::uint64_t om = 0, orp = 0;
        for (const auto& o : s.owners) {
          om += o.misses;
          orp += o.repl_misses;
        }
        if (om != s.misses || orp != s.repl_misses || s.misses != misses ||
            s.repl_misses != repl) {
          std::fprintf(stderr,
                       "FAIL: %s %s owner rows (%llu/%llu) != section "
                       "(%llu/%llu) != aggregate (%llu/%llu)\n",
                       what, cache, static_cast<unsigned long long>(om),
                       static_cast<unsigned long long>(orp),
                       static_cast<unsigned long long>(s.misses),
                       static_cast<unsigned long long>(s.repl_misses),
                       static_cast<unsigned long long>(misses),
                       static_cast<unsigned long long>(repl));
          ++failures;
        }
      };
      section(p.icache, r.icache.misses, r.icache.repl_misses, "icache");
      section(p.dcache, r.dcache_reads.misses, r.dcache_reads.repl_misses,
              "dcache");
      bool classify_owner = false;
      for (const auto& o : p.icache.owners) {
        if (o.name.rfind("classify_", 0) == 0 && o.misses > 0) {
          classify_owner = true;
        }
      }
      if (!classify_owner) {
        std::fprintf(stderr,
                     "FAIL: %s has no classify_* owner row with misses — "
                     "the lookup's code is not attributed\n",
                     what);
        ++failures;
      }
    };
    if (!prof.miss_nomatch.miss_cold || !prof.miss_nomatch.miss_steady) {
      std::fprintf(stderr, "FAIL: profile_misses produced no profiles\n");
      ++failures;
    } else {
      check(*prof.miss_nomatch.miss_cold, prof.miss_nomatch.cold,
            "nomatch/cold");
      check(*prof.miss_nomatch.miss_steady, prof.miss_nomatch.steady,
            "nomatch/steady");
    }
  }

  // --- fleet grid: rule count x skew under the measured coefficients ------
  const harness::BurstCostTable costs =
      harness::measure_burst_costs(net::StackKind::kTcpIp, cfg, 4);
  std::vector<harness::FleetSpec> specs;
  for (const RuleRow& row : rrows) {
    for (double s : skews) {
      harness::FleetSpec spec;
      spec.kind = net::StackKind::kTcpIp;
      spec.config = cfg;
      spec.scheme = code::FlowCacheScheme::kLru;
      spec.connections = 32;
      spec.packets = packets;
      spec.zipf_s = s;
      spec.seed = 42;
      spec.cache_capacity = 8;
      spec.cache_costs = auto_costs(row);
      spec.rules = row.rules;
      spec.rule_seed = rule_seed;
      char label[64];
      std::snprintf(label, sizeof(label), "r%zu/s%.1f", row.rules, s);
      spec.label = label;
      specs.push_back(std::move(spec));
    }
  }
  harness::FleetRunSpec grid;
  grid.rows = specs;
  grid.costs = costs;
  grid.common.workers = 1;
  const std::vector<harness::FleetResult> rows = harness::run(grid).fleet;
  grid.common.workers = 2;
  const std::vector<harness::FleetResult> rows2 = harness::run(grid).fleet;
  const harness::Json fleet = harness::fleet_json(costs, rows);
  if (fleet.dump() != harness::fleet_json(costs, rows2).dump()) {
    std::fprintf(stderr,
                 "FAIL: fleet grid is not byte-identical across worker "
                 "counts (1 vs 2)\n");
    ++failures;
  }

  // Invariant 5: packet conservation and zero unmatched scans per row.
  for (const auto& r : rows) {
    if (const std::string violation = harness::conservation_error(r);
        !violation.empty()) {
      std::fprintf(stderr, "FAIL: %s\n", violation.c_str());
      ++failures;
    }
    if (r.cache.unmatched_scans != 0) {
      std::fprintf(stderr,
                   "FAIL: %s shows %llu unmatched scans — a decoy path "
                   "shadowed fleet traffic or the real path stopped "
                   "matching\n",
                   r.spec.label.c_str(),
                   static_cast<unsigned long long>(r.cache.unmatched_scans));
      ++failures;
    }
  }

  // Invariant 3: the LRU cache pays for itself against the legacy
  // always-scan linear engine — on every skewed max-rule row, and report
  // the smallest count where it first does.
  std::int64_t cache_crossover = -1;
  for (const RuleRow& row : rrows) {
    const double always_scan =
        row.lin.costs.probe_us +
        row.lin.costs.per_rule_us *
            static_cast<double>(row.lin.scan_match.rules_examined);
    bool wins_all_skewed = true;
    for (const auto& r : rows) {
      if (r.spec.rules != row.rules || r.spec.zipf_s <= 0.0) continue;
      const double cached_avg =
          r.cache.lookups != 0
              ? r.cache.cost_us / static_cast<double>(r.cache.lookups)
              : 0.0;
      if (!(cached_avg < always_scan)) wins_all_skewed = false;
      if (row.rules == max_rules && !(cached_avg < always_scan)) {
        std::fprintf(stderr,
                     "FAIL: %s cached average %.3f us does not undercut the "
                     "linear always-scan %.3f us\n",
                     r.spec.label.c_str(), cached_avg, always_scan);
        ++failures;
      }
    }
    if (cache_crossover < 0 && wins_all_skewed) {
      cache_crossover = static_cast<std::int64_t>(row.rules);
    }
  }

  // --- break-even: PIN/ALL's advantage over CLO vs classification cost ----
  // Te is the paper's zero-overhead-classifier roundtrip; a path-inlined
  // side classifies one inbound packet per roundtrip, so charging both
  // sides `cost` gives Te + 2 x cost.  The break-even is the smallest swept
  // rule count where that reaches CLO's Te (-1: never), per layout, engine
  // and mode — a scan on every packet (miss_match) or a flow-cache hit.
  const auto te_of = [](const code::StackConfig& c) {
    return harness::run_config(net::StackKind::kTcpIp, c, c).te_us;
  };
  const double te_clo = te_of(code::StackConfig::Clo());
  struct BreakEven {
    const char* layout;
    double te_us;
    bool pin;
    /// [engine: linear, tuple][mode: scan, hit] -> rule count or -1.
    std::int64_t rules[2][2];
  };
  const auto measured = [](const RuleRow& r, bool pin, bool tuple)
      -> const harness::ClassifierCostMeasurement& {
    return pin ? (tuple ? r.pin_tup : r.pin_lin) : (tuple ? r.tup : r.lin);
  };
  const auto per_packet = [](const harness::ClassifierCostMeasurement& m,
                             bool hit) {
    return hit ? m.hit.tp_us : m.miss_match.tp_us;
  };
  const char* const engine_names[] = {"linear", "tuple"};
  std::vector<BreakEven> breaks = {
      {"PIN", te_of(pin_cfg), true, {}},
      {"ALL", te_of(cfg), false, {}},
  };
  for (BreakEven& b : breaks) {
    // Invariant 7: path-inlining beats CLO at zero classification cost.
    if (!(b.te_us < te_clo)) {
      std::fprintf(stderr,
                   "FAIL: %s Te %.3f us does not beat CLO's %.3f us with a "
                   "free classifier\n",
                   b.layout, b.te_us, te_clo);
      ++failures;
    }
    for (int e = 0; e < 2; ++e) {
      for (int mode = 0; mode < 2; ++mode) {
        b.rules[e][mode] = -1;
        for (const RuleRow& row : rrows) {
          const double cost =
              per_packet(measured(row, b.pin, e == 1), mode == 1);
          if (b.te_us + 2.0 * cost >= te_clo) {
            b.rules[e][mode] = static_cast<std::int64_t>(row.rules);
            break;
          }
        }
      }
      // Invariant 8: a flow-cache hit on both sides keeps the win at every
      // swept rule count.
      if (b.rules[e][1] != -1) {
        std::fprintf(stderr,
                     "FAIL: %s/%s with a cache hit on both sides loses to "
                     "CLO at %lld rules\n",
                     b.layout, engine_names[e],
                     static_cast<long long>(b.rules[e][1]));
        ++failures;
      }
    }
    // Invariant 9: a linear scan on every packet loses by the largest count.
    const double scan_max =
        per_packet(measured(rrows.back(), b.pin, false), false);
    if (!(b.te_us + 2.0 * scan_max >= te_clo)) {
      std::fprintf(stderr,
                   "FAIL: %s with a %zu-rule linear scan per packet (%.3f "
                   "us) still beats CLO (%.3f vs %.3f us)\n",
                   b.layout, max_rules, scan_max, b.te_us + 2.0 * scan_max,
                   te_clo);
      ++failures;
    }
    // Invariant 10: the linear match scan's cost strictly rises with rules.
    for (std::size_t i = 1; i < rrows.size(); ++i) {
      const double lo = measured(rrows[i - 1], b.pin, false).miss_match.tp_us;
      const double hi = measured(rrows[i], b.pin, false).miss_match.tp_us;
      if (!(hi > lo)) {
        std::fprintf(stderr,
                     "FAIL: %s linear match scan does not rise from %zu to "
                     "%zu rules (%.3f -> %.3f us)\n",
                     b.layout, rrows[i - 1].rules, rrows[i].rules, lo, hi);
        ++failures;
      }
    }
  }

  // --- report ---------------------------------------------------------------
  harness::Table t("Classifier scale: measured lookup costs (TCP/IP ALL, "
                   "seed " + std::to_string(rule_seed) + ")");
  t.columns({"rules", "paths", "tuples", "auto", "lin match [us]",
             "tup match [us]", "lin per-rule [us]", "hit [us]"});
  for (const RuleRow& r : rrows) {
    t.row({std::to_string(r.rules), std::to_string(r.lin.num_paths),
           std::to_string(r.tup.num_tuples),
           r.auto_tuple ? "tuple" : "linear",
           harness::fmt(r.lin.miss_match.tp_us, 3),
           harness::fmt(r.tup.miss_match.tp_us, 3),
           harness::fmt(r.lin.costs.per_rule_us, 4),
           harness::fmt(auto_costs(r).hit_us, 3)});
  }
  t.print();
  harness::Table ft("LRU fleet grid: " + std::to_string(packets) +
                    " packets/row, 32 connections, capacity 8");
  ft.columns({"row", "hit%", "avg lookup [us]", "p50 [us]", "p99 [us]"});
  for (const auto& r : rows) {
    ft.row({r.spec.label, harness::fmt(100.0 * r.cache.hit_ratio(), 1),
            harness::fmt(r.cache.lookups != 0
                             ? r.cache.cost_us /
                                   static_cast<double>(r.cache.lookups)
                             : 0.0,
                         3),
            harness::fmt(r.latency.p50, 1), harness::fmt(r.latency.p99, 1)});
  }
  ft.print();
  std::printf("engine crossover: tuple pays for itself at %lld rules; "
              "LRU cache beats the linear always-scan at %lld rules\n",
              static_cast<long long>(engine_crossover),
              static_cast<long long>(cache_crossover));
  harness::Table bt("Break-even vs CLO (TCP/IP, CLO Te " +
                    harness::fmt(te_clo, 2) +
                    " us): smallest rule count where Te + 2 x per-packet "
                    "cost >= CLO Te (-1: never)");
  bt.columns({"layout", "Te [us]", "margin/side [us]", "engine",
              "scan@" + std::to_string(max_rules) + " [us]",
              "hit@" + std::to_string(max_rules) + " [us]", "scan b/e",
              "hit b/e"});
  for (const BreakEven& b : breaks) {
    for (int e = 0; e < 2; ++e) {
      const auto& top = measured(rrows.back(), b.pin, e == 1);
      bt.row({b.layout, harness::fmt(b.te_us, 2),
              harness::fmt((te_clo - b.te_us) / 2.0, 2), engine_names[e],
              harness::fmt(top.miss_match.tp_us, 3),
              harness::fmt(top.hit.tp_us, 3), std::to_string(b.rules[e][0]),
              std::to_string(b.rules[e][1])});
    }
  }
  bt.print();

  // --- emission -------------------------------------------------------------
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
      harness::Json row =
          harness::Json::object().set("rules",
                                      static_cast<std::uint64_t>(r.rules));
      for (int e = 0; e < 2; ++e) {
        const auto& m = measured(r, b.pin, e == 1);
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
      layout.set(engine_names[e],
                 harness::Json::object()
                     .set("scan_rules", b.rules[e][0])
                     .set("hit_rules", b.rules[e][1]));
    }
    layouts.push_back(std::move(layout));
  }
  harness::Json break_even =
      harness::Json::object()
          .set("clo_te_us", te_clo)
          .set("layouts", std::move(layouts));
  harness::Json section = harness::emit_section(
      "classifier", 1,
      harness::Json::object()
          .set("config", cfg.name)
          .set("kind", "tcpip")
          .set("rule_seed", rule_seed)
          .set("rows", std::move(rows_json))
          .set("crossover",
               harness::Json::object()
                   .set("engine_rules", std::int64_t{engine_crossover})
                   .set("cache_rules", std::int64_t{cache_crossover}))
          .set("fuzz", harness::Json::object()
                           .set("frames", fuzz_frames)
                           .set("mismatches", fuzz_mismatches))
          .set("fleet", fleet)
          .set("break_even", std::move(break_even)));
  const std::filesystem::path out =
      std::filesystem::path(out_dir) / "classifier_scale.json";
  harness::write_json_file(out, section);
  std::printf("wrote %s\n", out.string().c_str());

  return failures == 0 ? 0 : 1;
}
