// Every single-connection result of the paper from one sweep: Tables 1-9,
// Figure 2, the ablations of Section 3.2's open questions, Section 4.1's
// throughput check, and two sections that explain the layout and outlining
// results: miss attribution and fault latency.
//
// One SweepRunner::run covers the paper's grid (both stacks x the six
// layouts, with Table 4's Te sampling; RPC's server runs ALL, Section
// 4.2), the original TCP/IP stack, one TCP/IP job per Section-2 change
// with that change turned off on both sides, and the ablation
// configurations the grid does not already measure.  Every ablation job is
// layout-only against a grid capture, so the sweep captures no more than
// the grid does.  Every table reads those outcomes, and every paper cell
// comes from harness/paper_ref.h.
//
// Miss attribution: the six TCP/IP grid jobs are profiled
// (`profile_misses`), which changes none of their numbers.  Its tables
// show which functions miss in the client i-cache and which pairs
// conflict; the pessimal BAD layout has a dominant function-vs-function
// pair, and the bipartite CLO layout must split it.
//
// Fault latency: one bad-checksum receive activation per side is captured
// from the grid's cached STD and ALL worlds and replayed under the image
// the clean capture laid out, pricing the outlined error path under
// STD/OUT/CLO/ALL against the grid's clean rows.
//
// Writes bench/out/paper.json: the l96.sweep.v1 rows (the six TCP/IP grid
// rows with an l96.missmap.v1 section, plus one `tcpip/<cfg>+fault` row per
// fault-latency layout with an l96.fault.v2 section) and a `scorecard`
// array with one cell per paper value (measured, paper, measured/paper).
// Exits 1, with a FAIL: line on stderr, after writing the JSON when a
// profile is missing, when CLO does not split BAD's dominant conflict pair,
// when OUT's error-path deltas are all zero or when the soak cross-check
// fails.
#include <cstdio>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>

#include "harness/paper_ref.h"
#include "harness/soak.h"
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
                      .te_sample_count = rpc ? 5u : 10u,
                      // The miss-attribution section reads these profiles.
                      .profile_misses = !rpc});
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

// --- Miss attribution --------------------------------------------------------

/// First i-cache conflict pair between two distinct, known function owners
/// (conflict rows are sorted by count desc, so this is the dominant one);
/// nullptr when the profile has none.
const sim::MissProfile::ConflictRow* top_function_pair(
    const sim::MissProfile::Section& s) {
  for (const auto& c : s.conflicts) {
    if (c.victim == c.evictor) continue;
    if (c.victim == sim::kUnknownOwner || c.evictor == sim::kUnknownOwner) {
      continue;
    }
    if (c.victim_name.rfind("data:", 0) == 0 ||
        c.evictor_name.rfind("data:", 0) == 0) {
      continue;
    }
    return &c;
  }
  return nullptr;
}

/// Eviction count between two named owners, both directions summed.
std::uint64_t pair_count(const sim::MissProfile::Section& s,
                         const std::string& a, const std::string& b) {
  std::uint64_t n = 0;
  for (const auto& c : s.conflicts) {
    if ((c.victim_name == a && c.evictor_name == b) ||
        (c.victim_name == b && c.evictor_name == a)) {
      n += c.count;
    }
  }
  return n;
}

std::string pair_label(const sim::MissProfile::ConflictRow* c) {
  if (c == nullptr) return "-";
  return c->victim_name + "<-" + c->evictor_name;
}

/// One table per replay (steady, cold) of the profiled TCP/IP grid rows'
/// client i-cache attribution, then the check that CLO splits BAD's
/// dominant conflict pair: its count under CLO, both directions summed,
/// must be at most 10% of BAD's.  False, with a FAIL: line, when a row has
/// no profile or the check fails.
bool miss_attribution(const auto& result) {
  for (const bool cold : {false, true}) {
    const char* replay = cold ? "cold" : "steady";
    harness::Table t(std::string("Miss attribution (client i-cache, ") +
                     replay + " replay)");
    t.columns({"Version", "misses", "repl", "cold", "mCPI(i)", "fns",
               "top conflict pair", "count"});
    for (const C& cfg : harness::paper_configs()) {
      const harness::SideMeasurement& m = result("tcpip/" + cfg.name).client;
      const auto& prof = cold ? m.miss_cold : m.miss_steady;
      if (!prof) {
        std::fprintf(stderr, "FAIL: %s has no %s miss profile\n",
                     cfg.name.c_str(), replay);
        return false;
      }
      const sim::MissProfile::Section& s = prof->icache;
      const auto* top = top_function_pair(s);
      t.row({cfg.name, count(s.misses), count(s.repl_misses),
             count(s.misses - s.repl_misses),
             fmt(m.instructions == 0
                     ? 0.0
                     : static_cast<double>(s.stall_cycles) /
                           static_cast<double>(m.instructions),
                 4),
             count(s.owners.size()), pair_label(top),
             top != nullptr ? count(top->count) : "-"});
    }
    t.print();
  }

  const auto& bad = result("tcpip/BAD").client.miss_steady->icache;
  const auto& clo = result("tcpip/CLO").client.miss_steady->icache;
  const auto* bad_top = top_function_pair(bad);
  if (bad_top == nullptr || bad_top->count == 0) {
    std::fprintf(stderr,
                 "FAIL: BAD steady replay has no function-vs-function "
                 "i-cache conflict pair — the pessimal layout is not "
                 "creating conflicts\n");
    return false;
  }
  const std::uint64_t bad_n =
      pair_count(bad, bad_top->victim_name, bad_top->evictor_name);
  const std::uint64_t clo_n =
      pair_count(clo, bad_top->victim_name, bad_top->evictor_name);
  std::printf(
      "BAD dominant i-cache conflict pair: %s <- %s, %llu evictions "
      "(both directions); same pair under CLO: %llu\n\n",
      bad_top->victim_name.c_str(), bad_top->evictor_name.c_str(),
      static_cast<unsigned long long>(bad_n),
      static_cast<unsigned long long>(clo_n));
  if (clo_n * 10 > bad_n) {
    std::fprintf(stderr,
                 "FAIL: bipartite layout did not split BAD's dominant "
                 "conflict pair (CLO %llu > 10%% of BAD %llu)\n",
                 static_cast<unsigned long long>(clo_n),
                 static_cast<unsigned long long>(bad_n));
    return false;
  }
  return true;
}

// --- Fault latency -----------------------------------------------------------
//
// The paper outlines rarely-executed blocks to keep the mainline compact
// (Section 3.1), but the outlined code still runs when a fault occurs, and
// then from cold, discontiguous lines.  A forced single-byte corruption of
// the TCP header (offset 40 = eth 14 + ip 20 + 6, inside the sequence
// field: checksummed but invisible to the packet classifier, so
// path-inlined configs still enter through the fast path) makes the
// receive activation take the outlined kInBadCksum block and drop the
// segment.  That activation is captured once per side and replayed under
// the image the clean capture laid out (MeasureSpec::profile), as it would
// run in production.  TCP/IP only: RPC's BLAST checksum drop is the same
// outlined early return and adds no layout variety.
//
// Per layout: the clean Te, each side's error-activation cycles, its
// iCPI/mCPI deltas against the clean activation, the server's error
// activation priced as the 5th packet of a burst (after four clean ones
// warmed the caches), and the rate model
//   te@p = te + p * ((err_us C + err_us S) / 2 + RTO)   for p = 5%
// with its burst-amortized variant te + p * (errS@b4 + RTO).  A soak pair
// (faults off vs. drop 2% + corrupt 2% + duplicate 1% per direction)
// cross-checks the model with measured end-to-end means.

// Byte 6 of the TCP header (sequence number): checksummed, not classified.
constexpr std::uint32_t kCorruptOffset = 40;

// Client retransmission timeout that recovers a dropped segment; used by
// the te@5% rate model (matches Tcp's initial rexmt of 200 ms).
constexpr double kRtoUs = 200'000.0;

struct ErrorTraces {
  code::PathTrace client;
  code::PathTrace server;
  std::size_t client_split = 0;
  std::size_t server_split = 0;
};

/// Capture one bad-checksum receive activation per side of a captured
/// world: at entry the client has just processed an echo and its next
/// request is in flight.
ErrorTraces capture_error_traces(net::World& w) {
  ErrorTraces et;

  // Client side: the next server->client transmit is the echo of the
  // in-flight request; corrupt it and record the client activation that
  // receives it (checksum fails, segment dropped, no transmit — so the
  // whole activation is critical-path).
  w.wire().injector().force(1, net::FaultKind::kCorrupt, kCorruptOffset,
                            /*has_arg=*/true);
  w.client().arm_capture(&et.client);
  if (!w.run_until([&] { return w.client().capture_complete(); },
                   10'000'000)) {
    throw std::runtime_error("client error-path capture did not complete");
  }
  et.client_split = w.client().tx_split();
  // The drop is recovered by the retransmission timer; restabilize.
  if (!w.run_until_roundtrips(w.client_roundtrips() + 4)) {
    throw std::runtime_error("recovery after client error capture stalled");
  }

  // Server side: at this point the next request is already in flight
  // (clean, its transmit preceded the force), so the forced corrupt hits
  // the request *after* it — step one roundtrip before arming so the
  // corrupted frame is the next server delivery.
  const std::uint64_t rt = w.client_roundtrips();
  w.wire().injector().force(0, net::FaultKind::kCorrupt, kCorruptOffset,
                            /*has_arg=*/true);
  if (!w.run_until_roundtrips(rt + 1)) {
    throw std::runtime_error("pre-arm roundtrip before server capture stalled");
  }
  w.server().arm_capture(&et.server);
  if (!w.run_until([&] { return w.server().capture_complete(); },
                   10'000'000)) {
    throw std::runtime_error("server error-path capture did not complete");
  }
  et.server_split = w.server().tx_split();
  if (!w.run_until_roundtrips(w.client_roundtrips() + 4)) {
    throw std::runtime_error("recovery after server error capture stalled");
  }
  return et;
}

double soak_mean_us(double rate_each, std::uint64_t seed) {
  harness::SoakSpec s;
  s.kind = net::StackKind::kTcpIp;
  s.roundtrips = 800;
  s.plan.seed = seed;
  s.plan.start_after_frames = 4;
  for (int p = 0; p < 2; ++p) {
    s.plan.rates[p].drop = rate_each * 2;
    s.plan.rates[p].corrupt = rate_each * 2;
    s.plan.rates[p].duplicate = rate_each;
  }
  const harness::SoakReport r = harness::run_soak(s);
  if (!r.ok()) {
    throw std::runtime_error("soak cross-check failed: " + r.summary());
  }
  return r.mean_roundtrip_us;
}

/// The fault-latency table and soak line.  The clean side of each row is
/// the grid's `tcpip/<cfg>` row; the error activations come from the
/// runner's cached worlds (STD, OUT and CLO share the STD world; ALL
/// records path-inlining markers in its own).  Appends one
/// `tcpip/<cfg>+fault` job and row per layout.  False, with a FAIL: line,
/// when the soak cross-check fails or OUT's error-path deltas are all zero.
bool fault_latency(harness::SweepRunner& runner,
                   std::vector<harness::SweepJob>& jobs,
                   std::vector<harness::SweepOutcome>& outcomes,
                   const std::map<std::string, std::size_t>& index) {
  // End-to-end cross-check: measured soak means, faults off vs. 5%
  // combined drop+corrupt+duplicate (2:2:1), same seed.
  double soak_clean = 0, soak_fault = 0;
  try {
    soak_clean = soak_mean_us(0.0, 7);
    soak_fault = soak_mean_us(0.05 / 5.0, 7);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return false;
  }

  auto job = [&](const std::string& cfg) -> const harness::SweepJob& {
    return jobs[index.at("tcpip/" + cfg)];
  };
  const ErrorTraces std_err =
      capture_error_traces(runner.capture(job("STD")).world());
  const ErrorTraces all_err =
      capture_error_traces(runner.capture(job("ALL")).world());

  harness::Table t(
      "Fault latency: outlined error-path cost per corrupted inbound "
      "segment (TCP kInBadCksum)");
  t.columns({"Version", "te [us]", "err-cyc C", "err-cyc S", "dI-CPI C",
             "dM-CPI C", "dI-CPI S", "dM-CPI S", "errS@b4 [us]",
             "te@5% [us]"});

  std::vector<harness::SweepJob> fault_jobs;
  std::vector<harness::SweepOutcome> fault_rows;
  bool out_deltas_nonzero = false;
  for (const C& cfg : {C::Std(), C::Out(), C::Clo(), C::All()}) {
    const harness::SweepJob& clean_job = job(cfg.name);
    const harness::ConfigResult& clean =
        outcomes[index.at(clean_job.label)].result;
    const ErrorTraces& err = cfg.path_inlining ? all_err : std_err;
    const harness::Experiment e = runner.capture(clean_job);

    // The error activation replayed under the image the *clean* profile
    // laid out: off-profile execution, the paper's outlining worst case.
    harness::MeasureSpec cspec = e.client_spec();
    harness::MeasureSpec sspec = e.server_spec();
    cspec.profile = &e.client_trace();
    cspec.trace = &err.client;
    cspec.split = err.client_split;
    sspec.profile = &e.server_trace();
    sspec.trace = &err.server;
    sspec.split = err.server_split;
    const auto err_c = harness::measure_side(cspec);
    const auto err_s = harness::measure_side(sspec);

    // The server's error activation priced under a *burst's* cache state
    // (stream API): as the first packet of a burst, and as the 5th, after
    // four clean packets of the same burst warmed the caches.
    harness::StreamSpec err_first;
    err_first.base = e.server_spec();
    err_first.base.profile = &e.server_trace();
    err_first.activations = {&err.server};
    const double err_s_first_us =
        harness::measure_stream(err_first).steady_us();
    harness::StreamSpec err_mid = err_first;
    err_mid.activations.assign(4, &e.server_trace());
    err_mid.activations.push_back(&err.server);
    const double err_s_burst_us = harness::measure_stream(err_mid).steady_us();

    harness::SweepOutcome fault_o;
    fault_o.label = clean_job.label + "+fault";
    fault_o.result = harness::combine_sides(err_c, err_s, e.controller_us());

    const double icpi_dc = err_c.steady.icpi() - clean.client.steady.icpi();
    const double mcpi_dc = err_c.steady.mcpi() - clean.client.steady.mcpi();
    const double icpi_ds = err_s.steady.icpi() - clean.server.steady.icpi();
    const double mcpi_ds = err_s.steady.mcpi() - clean.server.steady.mcpi();
    // Rate model: each faulted frame wastes one error activation on the
    // receiving side plus one retransmission timeout before recovery.
    const double te_at_5pct =
        clean.te_us + 0.05 * ((err_c.tp_us + err_s.tp_us) / 2.0 + kRtoUs);
    // Burst-amortized variant of the same model: under batched delivery
    // most faulted frames land mid-burst, where the clean predecessors
    // already paid the cache warm-up the error path shares.
    const double te_at_5pct_burst =
        clean.te_us + 0.05 * (err_s_burst_us + kRtoUs);

    // Every penalty figure, typed and schema-versioned.
    fault_o.extra_json(
        "fault",
        harness::emit_section("fault", 2)
            .set("corrupt_offset", std::uint64_t{kCorruptOffset})
            .set("rto_us", kRtoUs)
            .set("penalty",
                 harness::Json::object()
                     .set("client",
                          harness::Json::object()
                              .set("cycles", err_c.steady.cycles())
                              .set("us", err_c.tp_us)
                              .set("icpi_delta", icpi_dc)
                              .set("mcpi_delta", mcpi_dc))
                     .set("server",
                          harness::Json::object()
                              .set("cycles", err_s.steady.cycles())
                              .set("us", err_s.tp_us)
                              .set("icpi_delta", icpi_ds)
                              .set("mcpi_delta", mcpi_ds)))
            .set("expected_te_us_at_5pct", te_at_5pct)
            .set("burst",
                 harness::Json::object()
                     .set("err_us_server_first_in_burst", err_s_first_us)
                     .set("err_us_server_in_burst", err_s_burst_us)
                     .set("expected_te_us_at_5pct_burst", te_at_5pct_burst))
            .set("soak_mean_us",
                 harness::Json::object()
                     .set("clean", soak_clean)
                     .set("faulted", soak_fault)));

    if (cfg.name == "OUT" && err_c.steady.cycles() > 0 &&
        (icpi_dc != 0.0 || mcpi_dc != 0.0 || icpi_ds != 0.0 ||
         mcpi_ds != 0.0)) {
      out_deltas_nonzero = true;
    }

    t.row({cfg.name, fmt(clean.te_us), count(err_c.steady.cycles()),
           count(err_s.steady.cycles()), fmt(icpi_dc, 3), fmt(mcpi_dc, 3),
           fmt(icpi_ds, 3), fmt(mcpi_ds, 3), fmt(err_s_burst_us, 2),
           fmt(te_at_5pct)});

    harness::SweepJob fault_job = clean_job;
    fault_job.label = fault_o.label;
    fault_jobs.push_back(std::move(fault_job));
    fault_rows.push_back(std::move(fault_o));
  }
  t.print();
  std::printf(
      "soak cross-check (800 roundtrips, seed 7): faults-off mean %.1f us, "
      "5%% faults mean %.1f us\n",
      soak_clean, soak_fault);

  jobs.insert(jobs.end(), fault_jobs.begin(), fault_jobs.end());
  outcomes.insert(outcomes.end(), fault_rows.begin(), fault_rows.end());
  if (!out_deltas_nonzero) {
    std::fprintf(stderr,
                 "FAIL: OUT error-path deltas are all zero — outlined "
                 "blocks did not change the replay\n");
    return false;
  }
  return true;
}

}  // namespace

int main() {
  auto jobs = paper_jobs();
  harness::SweepRunner runner;
  auto outcomes = runner.run(jobs);
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

  const bool missmap_ok = miss_attribution(result);
  const bool fault_ok = fault_latency(runner, jobs, outcomes, index);

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
  return missmap_ok && fault_ok ? 0 : 1;
}
