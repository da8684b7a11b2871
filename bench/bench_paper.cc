// Every single-connection result of the paper from one sweep: Tables 1-9,
// Figure 2, the ablations of Section 3.2's open questions and Section 4.1's
// throughput check.
//
// One SweepRunner::run covers the paper's grid (both stacks x the six
// layouts, with Table 4's Te sampling; RPC's server runs ALL, Section
// 4.2), the original TCP/IP stack, one TCP/IP job per Section-2 change
// with that change turned off on both sides, and the ablation
// configurations the grid does not already measure.  Every ablation job is
// layout-only against a grid capture, so the sweep captures no more than
// the grid does.  Every table reads those outcomes, and every paper cell
// comes from harness/paper_ref.h.  Writes bench/out/paper.json: the
// l96.sweep.v1 rows plus a `scorecard` array with one cell per paper value
// (measured, paper, measured/paper).
#include <cstdio>
#include <map>
#include <optional>
#include <span>

#include "harness/paper_ref.h"
#include "harness/sweep.h"
#include "harness/tables.h"
#include "harness/throughput.h"

using namespace l96;
using harness::fmt;
using harness::paper::value;
using C = code::StackConfig;

namespace {

struct Stack {
  const char* prefix;  ///< job label and paper row prefix
  const char* title;
  net::StackKind kind;
};
const Stack kStacks[] = {{"tcpip/", "TCP/IP", net::StackKind::kTcpIp},
                         {"rpc/", "RPC", net::StackKind::kRpc}};

struct Toggle {
  const char* field;
  const char* technique;
  bool C::*flag;
};
const Toggle kToggles[] = {
    {"tcb_word_fields", "Change bytes and shorts to words in TCP state",
     &C::tcb_word_fields},
    {"msg_refresh_shortcut",
     "More efficiently refresh message after processing",
     &C::msg_refresh_shortcut},
    {"usc_sparse_descriptors", "Use USC in LANCE to avoid descriptor copying",
     &C::usc_sparse_descriptors},
    {"inline_map_cache_test", "Inlined hash-table cache test",
     &C::inline_map_cache_test},
    {"careful_inlining", "Various inlining", &C::careful_inlining},
    {"avoid_int_division", "Avoid integer division", &C::avoid_int_division},
    {"minor_opts", "Other minor changes", &C::minor_opts},
};

C cloned(C c, code::LayoutKind layout) {
  c.cloning = true;
  c.layout = layout;
  return c;
}
C aggressive(C c) {
  c.outline_mode = code::OutlineMode::kProfileAggressive;
  return c;
}
C at_connect(C c) {
  c.clone_at_connect = true;
  return c;
}

/// One row of an ablation table.  A row whose configuration the grid
/// measures reads the grid's job; the others carry their configuration and
/// become jobs of their own.
struct Variant {
  const char* row;
  const char* job;  ///< job label after the stack prefix
  std::optional<C> cfg;
};
const Variant kLayouts[] = {
    {"link-order (no cloning)", "OUT", {}},
    {"linear (invocation order)", "linear",
     cloned(C::Out(), code::LayoutKind::kLinear)},
    {"bipartite (paper's winner)", "CLO", {}},
    {"micro-positioning", "micro-positioning",
     cloned(C::Out(), code::LayoutKind::kMicroPosition)},
    {"random", "random", cloned(C::Out(), code::LayoutKind::kRandom)},
    {"pessimal", "BAD", {}},
};
const Variant kOutlining[] = {
    {"neither", "STD", {}},
    {"outline only (conservative)", "OUT", {}},
    {"outline only (profile-aggressive)", "OUT-aggressive",
     aggressive(C::Out())},
    {"clone only (no outlining)", "STD+clone",
     cloned(C::Std(), code::LayoutKind::kBipartite)},
    {"outline + clone", "CLO", {}},
    {"aggressive outline + clone", "CLO-aggressive", aggressive(C::Clo())},
};
const Variant kConnect[] = {
    {"CLO (boot-time clones)", "CLO", {}},
    {"CLO + connect-time specialization", "CLO+connect", at_connect(C::Clo())},
    {"ALL (boot-time clones)", "ALL", {}},
    {"ALL + connect-time specialization", "ALL+connect", at_connect(C::All())},
};

/// The i-cache-size ablation (TCP/IP only): bipartite (CLO) against the
/// linear layout, by job label.  At the default size its rows are the CLO
/// and linear jobs.
const std::uint32_t kCacheKiB[] = {4, 8, 16, 32, 64};
const std::pair<const char*, C> kCacheLayouts[] = {
    {"CLO", C::Clo()},
    {"linear", cloned(C::Out(), code::LayoutKind::kLinear)},
};
bool default_icache(std::uint32_t kib) {
  return kib * 1024 == harness::MachineParams{}.mem.icache_bytes;
}
std::string cache_job(const char* job, std::uint32_t kib) {
  return std::string("tcpip/") + job +
         (default_icache(kib) ? "" : "@" + std::to_string(kib) + "KiB");
}

std::vector<harness::SweepJob> paper_jobs() {
  std::vector<harness::SweepJob> jobs;
  for (const Stack& s : kStacks) {
    const bool rpc = s.kind == net::StackKind::kRpc;
    for (const C& cfg : harness::paper_configs()) {
      jobs.push_back({.label = s.prefix + cfg.name,
                      .kind = s.kind,
                      .client = cfg,
                      .server = rpc ? C::All() : cfg,
                      .te_sample_count = rpc ? 5u : 10u});
    }
  }
  jobs.push_back({.label = "tcpip/Original",
                  .client = C::Original(),
                  .server = C::Original()});
  for (const Toggle& t : kToggles) {
    C cfg = C::Std();
    cfg.*t.flag = false;
    jobs.push_back({.label = std::string("tcpip/STD-") + t.field,
                    .client = cfg,
                    .server = cfg});
  }
  for (const Stack& s : kStacks) {
    const bool rpc = s.kind == net::StackKind::kRpc;
    using Rows = std::span<const Variant>;
    for (Rows table : {Rows(kLayouts), Rows(kOutlining), Rows(kConnect)}) {
      for (const Variant& v : table) {
        if (!v.cfg) continue;
        C cfg = *v.cfg;
        cfg.name = v.job;
        jobs.push_back({.label = s.prefix + std::string(v.job),
                        .kind = s.kind,
                        .client = cfg,
                        .server = rpc ? C::All() : cfg});
      }
    }
  }
  for (const std::uint32_t kib : kCacheKiB) {
    if (default_icache(kib)) continue;
    for (const auto& [job, layout] : kCacheLayouts) {
      C cfg = layout;
      cfg.name = job;
      harness::MachineParams params;
      params.mem.icache_bytes = kib * 1024;
      jobs.push_back({.label = cache_job(job, kib),
                      .client = cfg,
                      .server = cfg,
                      .params = params});
    }
  }
  return jobs;
}

std::string paper_cell(std::optional<double> v, int prec) {
  return v ? fmt(*v, prec) : "-";
}

std::string count(std::uint64_t n) { return std::to_string(n); }

long long delta(std::uint64_t from, std::uint64_t to) {
  return static_cast<long long>(from) - static_cast<long long>(to);
}

}  // namespace

int main() {
  const auto jobs = paper_jobs();
  harness::SweepRunner runner;
  const auto outcomes = runner.run(jobs);
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < jobs.size(); ++i) index[jobs[i].label] = i;
  auto at = [&](const std::string& label) -> const harness::SweepOutcome& {
    return outcomes[index.at(label)];
  };
  auto result = [&](const std::string& label) -> const harness::ConfigResult& {
    return at(label).result;
  };
  const auto configs = harness::paper_configs();

  // The paper's value at a key, if it has one, with `measured` recorded
  // against it for the scorecard.
  std::map<const harness::paper::Ref*, double> scored;
  auto score = [&](int table, const std::string& row, const std::string& col,
                   double measured) -> std::optional<double> {
    const harness::paper::Ref* ref = harness::paper::find(table, row, col);
    if (ref == nullptr) return std::nullopt;
    scored[ref] = measured;
    return ref->value;
  };

  {
    harness::Table t("Table 1: Dynamic Instruction Count Reductions");
    t.columns({"Technique", "Paper", "Measured"});
    const std::uint64_t improved = result("tcpip/STD").client.instructions;
    std::uint64_t total = 0;
    for (const Toggle& tg : kToggles) {
      const std::uint64_t saved =
          result(std::string("tcpip/STD-") + tg.field).client.instructions -
          improved;
      total += saved;
      t.row({tg.technique, paper_cell(score(1, tg.field, "saved", saved), 0),
             count(saved)});
    }
    t.row({"Total (sum of rows)",
           paper_cell(score(1, "total", "saved", total), 0), count(total)});
    t.row({"Total (all off at once)", fmt(value(1, "total", "saved"), 0),
           count(result("tcpip/Original").client.instructions - improved)});
    t.print();
  }

  {
    harness::Table t("Table 2: Original vs Improved x-kernel TCP/IP");
    t.columns({"Metric", "Original", "Improved", "paper Original",
               "paper Improved"});
    const auto& orig = result("tcpip/Original");
    const auto& impr = result("tcpip/STD");
    auto row = [&](const char* name, const char* key, int prec, double o,
                   double i) {
      t.row({name, fmt(o, prec), fmt(i, prec),
             paper_cell(score(2, key, "Original", o), prec),
             paper_cell(score(2, key, "Improved", i), prec)});
    };
    row("Roundtrip latency [us]", "latency_us", 1, orig.te_us, impr.te_us);
    row("Instructions executed", "instructions", 0,
        double(orig.client.instructions), double(impr.client.instructions));
    row("Processing time [cycles]", "cycles", 0,
        double(orig.client.steady.cycles()),
        double(impr.client.steady.cycles()));
    row("CPI", "CPI", 2, orig.client.steady.cpi(), impr.client.steady.cpi());
    t.print();
  }

  {
    // The paper's task boundaries over the STD capture: entering IP to
    // entering TCP, and entering TCP to delivery above TCP.
    const harness::SweepJob& std_job = jobs[index.at("tcpip/STD")];
    const harness::Experiment e = runner.capture(std_job);
    auto upto = [&](const char* fn) {
      return e.lower_client_prefix(e.find_client_call(fn)).size();
    };
    const std::size_t n_tcp = upto("tcp_demux");
    const double ip_to_tcp = double(n_tcp - upto("ip_demux"));
    const double tcp_to_sock = double(upto("tcptest_recv") - n_tcp);

    harness::Table t("Table 3: Comparison of TCP/IP Implementations");
    t.columns({"Instructions executed...", "80386 [CJRS89]", "DEC Unix v3.2c",
               "x-kernel (this repo)"});
    auto row = [&](const char* name, const char* key, double n,
                   const std::string& note) {
      const auto i386 = score(3, key, "80386", n);
      t.row({name, i386 ? fmt(*i386, 0) + note : "n/a",
             paper_cell(score(3, key, "DEC Unix", n), 0), fmt(n, 0)});
    };
    row("between IP input and TCP input", "ip->tcp", ip_to_tcp,
        " (in ipintr ~" + fmt(value(3, "ip->tcp", "80386 ipintr"), 0) + ")");
    row("between TCP input and socket input", "tcp->socket", tcp_to_sock,
        " (tcp_input)");
    row("total (both tasks)", "total", ip_to_tcp + tcp_to_sock, "");
    t.print();

    const auto& all = result("tcpip/ALL").client.steady;
    const auto& std_ = result("tcpip/STD").client.steady;
    std::printf("mCPI: DEC Unix (paper) = %s; x-kernel ALL (measured) = %.2f; "
                "x-kernel STD (measured) = %.2f\n",
                fmt(*score(3, "mCPI", "DEC Unix", all.mcpi())).c_str(),
                all.mcpi(), std_.mcpi());
    std::printf("CPI: DEC Unix (paper) = %s; x-kernel (paper) = %s; "
                "x-kernel STD (measured) = %.2f\n\n",
                fmt(*score(3, "CPI", "DEC Unix", std_.cpi()), 2).c_str(),
                fmt(*score(3, "CPI", "x-kernel", std_.cpi())).c_str(),
                std_.cpi());
  }

  // Table 4 is Te, mean ± sd over the scrub seeds; Table 5 is the same
  // rows' Te' (Te minus the controller overhead).
  for (const int table : {4, 5}) {
    const std::string col = table == 4 ? "Te" : "Te'";
    for (const Stack& s : kStacks) {
      const std::string p = s.prefix;
      auto te = [&](const std::string& cfg) {
        return table == 4 ? harness::mean_sd(at(p + cfg).te_samples)
                          : harness::MeanSd{result(p + cfg).te_adjusted, 0};
      };
      const double best = te("ALL").mean;
      const double pbest = value(table, p + "ALL", col);
      const char* title =
          table == 4 ? "Table 4: End-to-end Roundtrip Latency — "
                     : "Table 5: Adjusted Roundtrip Latency (minus 210us) — ";
      harness::Table t(title + std::string(s.title));
      t.columns({"Version", col + " [us]", "D [%]", "paper " + col,
                 "paper D%"});
      for (const C& cfg : configs) {
        const auto ms = te(cfg.name);
        const double pte = *score(table, p + cfg.name, col, ms.mean);
        t.row({cfg.name,
               table == 4 ? harness::fmt_pm(ms.mean, ms.sd) : fmt(ms.mean),
               "+" + fmt(100.0 * (ms.mean - best) / best), fmt(pte),
               "+" + fmt(100.0 * (pte - pbest) / pbest)});
      }
      t.print();
    }
  }

  for (const Stack& s : kStacks) {
    const char* cols[] = {"i-Miss", "i-Acc", "i-Repl", "d-Miss", "d-Acc",
                          "d-Repl", "b-Miss", "b-Acc", "b-Repl"};
    harness::Table t(std::string("Table 6: Cache Performance — ") + s.title);
    t.columns({"Version", cols[0], cols[1], cols[2], cols[3], cols[4],
               cols[5], cols[6], cols[7], cols[8]});
    for (const C& cfg : configs) {
      const std::string row = s.prefix + cfg.name;
      const auto& c = result(row).client.cold;
      const std::uint64_t cells[] = {
          c.icache.misses,           c.icache.accesses,
          c.icache.repl_misses,      c.dcache_combined.misses,
          c.dcache_combined.accesses, c.dcache_combined.repl_misses,
          c.bcache.misses,           c.bcache.accesses,
          c.bcache.repl_misses};
      // A "paper" row follows each row the paper reports cells for.
      std::vector<std::string> measured{cfg.name}, paper{"  paper"};
      bool any_paper = false;
      for (std::size_t i = 0; i < std::size(cells); ++i) {
        measured.push_back(count(cells[i]));
        const auto pv = score(6, row, cols[i], double(cells[i]));
        any_paper = any_paper || pv.has_value();
        paper.push_back(paper_cell(pv, 0));
      }
      t.row(std::move(measured));
      if (any_paper) t.row(std::move(paper));
    }
    t.print();
  }

  for (const Stack& s : kStacks) {
    const std::string p = s.prefix;
    harness::Table t(
        std::string("Table 7: Processing Time and CPI decomposition — ") +
        s.title);
    t.columns({"Version", "Tp [us]", "Length", "mCPI", "iCPI", "CPI",
               "taken-br"});
    for (const C& cfg : configs) {
      const auto& client = result(p + cfg.name).client;
      const auto& r = client.steady;
      t.row({cfg.name, fmt(client.tp_us), count(client.instructions),
             fmt(r.mcpi(), 2), fmt(r.icpi(), 2), fmt(r.cpi(), 2),
             count(r.taken_branches)});
    }
    t.print();
    const double all = result(p + "ALL").client.steady.mcpi();
    const double ratio = result(p + "BAD").client.steady.mcpi() / all;
    const double d_icpi = result(p + "STD").client.steady.icpi() -
                          result(p + "OUT").client.steady.icpi();
    std::printf(
        "ALL mCPI: %.2f (paper %s); BAD/ALL mCPI: %.2f (paper %s); "
        "STD-OUT iCPI: %.2f (paper %s)\n\n",
        all, paper_cell(score(7, p + "ALL", "mCPI", all), 2).c_str(), ratio,
        paper_cell(score(7, p + "BAD/ALL", "mCPI", ratio), 1).c_str(), d_icpi,
        paper_cell(score(7, p + "STD-OUT", "iCPI", d_icpi), 1).c_str());
  }

  const std::pair<const char*, const char*> steps[] = {
      {"BAD", "CLO"}, {"STD", "OUT"}, {"OUT", "CLO"},
      {"OUT", "PIN"}, {"PIN", "ALL"}};
  for (const Stack& s : kStacks) {
    const std::string p = s.prefix;
    harness::Table t(
        std::string("Table 8: Latency Improvement Comparison — ") + s.title +
        " (I% = share of b-cache access reduction due to the i-cache)");
    t.columns({"Step", "I [%]", "paper I%", "dTe [us]", "dTp [us]", "dNb",
               "dNm"});
    for (const auto& [from_cfg, to_cfg] : steps) {
      const std::string step = std::string(from_cfg) + "->" + to_cfg;
      const auto& from = result(p + from_cfg);
      const auto& to = result(p + to_cfg);
      const auto& cf = from.client.steady;
      const auto& ct = to.client.steady;
      const double d_btotal =
          double(delta(cf.traffic.total(), ct.traffic.total()));
      const double d_bifetch =
          double(delta(cf.traffic.from_ifetch, ct.traffic.from_ifetch));
      const double ipct = d_btotal != 0 ? 100.0 * d_bifetch / d_btotal : 0.0;
      t.row({step, fmt(ipct, 0), paper_cell(score(8, p + step, "I%", ipct), 0),
             fmt(from.te_us - to.te_us),
             fmt(from.client.tp_us - to.client.tp_us),
             std::to_string(delta(cf.bcache.accesses, ct.bcache.accesses)),
             std::to_string(
                 delta(cf.bcache.repl_misses, ct.bcache.repl_misses))});
    }
    t.print();
  }

  {
    // Without outlining is STD, with outlining OUT.
    harness::Table t("Table 9: Outlining Effectiveness");
    t.columns({"Stack", "Mode", "i-cache unused [%]", "paper",
               "Static size [instr]", "paper", "Outlined [%]", "paper"});
    auto outlined = [](double with, double without) {
      return fmt(100.0 * (1.0 - with / without));
    };
    for (const Stack& s : kStacks) {
      const std::string p = s.prefix;
      const auto& std_ = result(p + "STD").client;
      for (const std::string cfg : {"STD", "OUT"}) {
        const auto& m = result(p + cfg).client;
        const double unused = 100.0 * m.footprint.unused_fraction;
        const bool out = cfg == "OUT";
        t.row({s.title, out ? "with outlining" : "without outlining",
               fmt(unused),
               paper_cell(score(9, p + cfg, "unused%", unused), 0),
               count(m.static_hot_words),
               paper_cell(score(9, p + cfg, "size", m.static_hot_words), 0),
               out ? outlined(m.static_hot_words, std_.static_hot_words) : "-",
               out ? outlined(value(9, p + "OUT", "size"),
                              value(9, p + "STD", "size"))
                   : "-"});
      }
    }
    t.print();
  }

  {
    // One character per cache set: '.' untouched, '+' one distinct block
    // fetched, '#' several distinct blocks competing for the set.
    const std::pair<const char*, const char*> panels[] = {
        {"STD", "link order, inline error code (gaps)"},
        {"OUT", "outlined: mainline compressed"},
        {"CLO", "outlining + cloning, bipartite layout"},
        {"ALL", "path-inlined + bipartite"},
        {"BAD", "pessimal layout (everything aliases)"},
    };
    std::printf("Figure 2: i-cache footprint (256 sets, 64 per row)\n");
    std::printf("'.' untouched   '+' one block   '#' conflicting blocks\n\n");
    for (const auto& [cfg, caption] : panels) {
      const std::string label = std::string("tcpip/") + cfg;
      const auto& client = result(label).client;
      std::printf("-- %s — %s --\n%s", cfg, caption,
                  code::footprint_map(
                      runner.capture(jobs[index.at(label)]).lower_client())
                      .c_str());
      std::printf("distinct blocks fetched: %llu, instructions: %llu\n\n",
                  static_cast<unsigned long long>(
                      client.footprint.blocks_fetched),
                  static_cast<unsigned long long>(client.instructions));
    }
  }

  // One table per stack over the rows of `variants`.
  auto ablation = [&](const std::string& title,
                      const std::vector<std::string>& columns,
                      std::span<const Variant> variants, auto cells) {
    for (const Stack& s : kStacks) {
      harness::Table t(title + " — " + s.title);
      t.columns(columns);
      for (const Variant& v : variants) {
        std::vector<std::string> row{v.row};
        for (std::string& c : cells(result(s.prefix + std::string(v.job)))) {
          row.push_back(std::move(c));
        }
        t.row(std::move(row));
      }
      t.print();
    }
  };

  ablation("Ablation: cloning layout strategies",
           {"Strategy", "Te [us]", "Tp [us]", "mCPI", "i-miss (cold)",
            "i-repl (cold)"},
           kLayouts, [](const harness::ConfigResult& r) {
             return std::vector<std::string>{
                 fmt(r.te_us), fmt(r.client.tp_us),
                 fmt(r.client.steady.mcpi(), 2),
                 count(r.client.cold.icache.misses),
                 count(r.client.cold.icache.repl_misses)};
           });

  {
    harness::Table t(
        "Ablation: bipartite vs linear layout across i-cache sizes (TCP/IP)");
    t.columns({"i-cache", "bipartite Tp [us]", "linear Tp [us]",
               "bipartite mCPI", "linear mCPI"});
    for (const std::uint32_t kib : kCacheKiB) {
      const auto& bip = result(cache_job("CLO", kib)).client;
      const auto& lin = result(cache_job("linear", kib)).client;
      t.row({std::to_string(kib) + " KiB", fmt(bip.tp_us), fmt(lin.tp_us),
             fmt(bip.steady.mcpi(), 2), fmt(lin.steady.mcpi(), 2)});
    }
    t.print();
  }

  ablation("Ablation: outlining x cloning",
           {"Variant", "Te [us]", "mCPI", "iCPI", "taken-br",
            "hot size [instr]", "unused [%]"},
           kOutlining, [](const harness::ConfigResult& r) {
             return std::vector<std::string>{
                 fmt(r.te_us), fmt(r.client.steady.mcpi(), 2),
                 fmt(r.client.steady.icpi(), 2),
                 count(r.client.steady.taken_branches),
                 count(r.client.static_hot_words),
                 fmt(100.0 * r.client.footprint.unused_fraction)};
           });

  ablation("Ablation: connection-time cloning",
           {"Variant", "Te [us]", "instrs", "hot size", "mCPI"}, kConnect,
           [](const harness::ConfigResult& r) {
             return std::vector<std::string>{
                 fmt(r.te_us), count(r.client.instructions),
                 count(r.client.static_hot_words),
                 fmt(r.client.steady.mcpi(), 2)};
           });

  // Section 4.1: none of the latency techniques may hurt throughput.
  {
    harness::Table t("Throughput: TCP bulk transfer (256 KiB)");
    t.columns({"Version", "goodput [kB/s]", "frames", "rexmt",
               "per-roundtrip Tp [us]"});
    for (const C& cfg : {C::Std(), C::Out(), C::Clo(), C::Pin(), C::All()}) {
      const auto r = harness::measure_tcp_throughput(cfg);
      t.row({cfg.name, fmt(r.kbytes_per_second), count(r.frames),
             count(r.retransmits), fmt(r.processing_us)});
    }
    t.print();
  }
  {
    harness::Table t("Throughput: RPC 32 x 8 KiB calls (BLAST-fragmented)");
    t.columns({"Version", "goodput [kB/s]", "frames"});
    for (const C& cfg : {C::Std(), C::All()}) {
      const auto r = harness::measure_rpc_throughput(cfg);
      t.row({cfg.name, fmt(r.kbytes_per_second), count(r.frames)});
    }
    t.print();
  }

  // One scorecard cell per paper value; `measured` and `ratio` are null
  // where the repo has no counterpart, `ratio` also where the paper's
  // value is 0.
  harness::Json cells = harness::Json::array();
  for (const harness::paper::Ref& ref : harness::paper::kRefs) {
    const auto it = scored.find(&ref);
    const bool has = it != scored.end();
    cells.push_back(
        harness::Json::object()
            .set("table", ref.table)
            .set("row", std::string(ref.row))
            .set("column", std::string(ref.column))
            .set("measured", has ? harness::Json(it->second) : harness::Json())
            .set("paper", ref.value)
            .set("ratio", has && ref.value != 0
                              ? harness::Json(it->second / ref.value)
                              : harness::Json()));
  }
  harness::Json doc = harness::sweep_json("paper", runner, jobs, outcomes);
  doc.set("scorecard", std::move(cells));
  harness::write_json_file("bench/out/paper.json", doc);
  return 0;
}
