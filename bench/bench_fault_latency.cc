// bench_fault_latency: price the outlined error paths.
//
// The paper outlines rarely-executed basic blocks to keep the mainline
// compact (Section 3.1) — but the outlined code still runs when a fault
// actually occurs, and then it runs from cold, discontiguous cache lines.
// This bench measures that cold-path penalty for a corrupted inbound TCP
// segment (the kInBadCksum error path) under STD/OUT/CLO/ALL:
//
//  * Clean activation: the usual steady-state roundtrip capture, replayed
//    under each layout (same numbers as Table 7).
//  * Error activation: a forced single-byte corruption of the TCP header
//    (offset 40 = eth 14 + ip 20 + 6, inside the sequence field — covered
//    by the TCP checksum but invisible to the packet classifier, so
//    path-inlined configs still enter through the fast path).  The receive
//    activation verifies the checksum, takes the outlined kInBadCksum
//    block, and drops the segment.  That activation is captured once per
//    side and replayed under the *mainline* profile's image
//    (MeasureSpec::profile pointing at the clean capture), i.e. the error
//    path runs under a layout optimized for the clean path — exactly what
//    happens in production.
//
// TCP/IP only: the RPC stack's BLAST checksum-drop path is structurally
// identical (an outlined early return) and adds no layout variety, while
// doubling the capture cost.
//
// Reported per configuration: the clean end-to-end latency, the error
// activation's cycle cost per side (pure overhead: the work is thrown
// away), the iCPI/mCPI deltas of the error activation vs. the clean one
// (the price of executing outlined blocks), and a rate model
// te@p = te + p * (err_us + RTO) for p = 5% — the expected roundtrip cost
// once retransmission recovery is charged.  A soak pair (faults off vs.
// 5% combined drop+corrupt+duplicate) cross-checks the model with
// end-to-end measured means.
//
// Burst pricing (activation-stream API): the server error activation is
// additionally priced as the first packet of a burst and as the 5th, after
// four clean activations of the same burst warmed the caches — under
// batched delivery most faulted frames land mid-burst, so the burst-
// amortized rate model te@5%burst uses the mid-burst error cost.
// JSON: bench/out/bench_fault_latency.json (schema l96.sweep.v1; deltas in
// each faulted row's flat "extra" map and, typed, in its "fault" section,
// schema l96.fault.v2 with the burst-priced error costs under "burst").
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/soak.h"
#include "harness/sweep.h"
#include "harness/tables.h"
#include "net/world.h"
#include "protocols/lance.h"

using namespace l96;

namespace {

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

/// Capture one bad-checksum receive activation per side of a warmed-up
/// world.  capture_traces() must already have run: at entry the client has
/// just processed an echo and its next request is in flight.
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

/// One world per *functional* configuration (STD/OUT/CLO share a trace;
/// ALL records path-inlining markers), with clean and error captures.
struct Bundle {
  std::unique_ptr<net::World> world;
  harness::CaptureResult clean;
  ErrorTraces err;
  double controller_us = 0;
};

Bundle make_bundle(const code::StackConfig& functional,
                   const harness::MachineParams& params) {
  Bundle b;
  b.world = std::make_unique<net::World>(net::StackKind::kTcpIp, functional,
                                         functional);
  b.world->start(~std::uint64_t{0});
  b.clean = harness::capture_traces(*b.world, params.warmup_roundtrips);
  b.err = capture_error_traces(*b.world);
  b.controller_us =
      2.0 * b.world->wire().params().one_way_us(proto::Lance::kMinFrame);
  return b;
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

}  // namespace

int main() {
  const auto params = harness::MachineParams::defaults();

  Bundle std_b = make_bundle(code::StackConfig::Std(), params);
  Bundle all_b = make_bundle(code::StackConfig::All(), params);

  const std::vector<code::StackConfig> cfgs = {
      code::StackConfig::Std(), code::StackConfig::Out(),
      code::StackConfig::Clo(), code::StackConfig::All()};

  // End-to-end cross-check: measured soak means, faults off vs. 5%
  // combined drop+corrupt+duplicate (2:2:1), same seed.
  const double soak_clean = soak_mean_us(0.0, 7);
  const double soak_fault = soak_mean_us(0.05 / 5.0, 7);

  std::vector<harness::SweepJob> jobs;
  std::vector<harness::SweepOutcome> outcomes;
  harness::Table t(
      "Fault latency: outlined error-path cost per corrupted inbound "
      "segment (TCP kInBadCksum)");
  t.columns({"Version", "te [us]", "err-cyc C", "err-cyc S", "dI-CPI C",
             "dM-CPI C", "dI-CPI S", "dM-CPI S", "errS@b4 [us]",
             "te@5% [us]"});

  bool out_deltas_nonzero = false;
  for (const auto& cfg : cfgs) {
    Bundle& b = cfg.path_inlining ? all_b : std_b;
    const auto& creg = b.world->client().registry();
    const auto& sreg = b.world->server().registry();

    harness::MeasureSpec cspec;
    cspec.kind = net::StackKind::kTcpIp;
    cspec.cfg = cfg;
    cspec.registry = &creg;
    cspec.trace = &b.clean.client;
    cspec.split = b.clean.client_split;
    cspec.seed_offset = 0;
    cspec.params = params;
    harness::MeasureSpec sspec = cspec;
    sspec.registry = &sreg;
    sspec.trace = &b.clean.server;
    sspec.split = b.clean.server_split;
    sspec.seed_offset = 1;

    const auto clean_c = harness::measure_side(cspec);
    const auto clean_s = harness::measure_side(sspec);
    const harness::MeasureSpec clean_sspec = sspec;
    // The error activation replayed under the image the *clean* profile
    // laid out: off-profile execution, the paper's outlining worst case.
    cspec.profile = &b.clean.client;
    cspec.trace = &b.err.client;
    cspec.split = b.err.client_split;
    sspec.profile = &b.clean.server;
    sspec.trace = &b.err.server;
    sspec.split = b.err.server_split;
    const auto err_c = harness::measure_side(cspec);
    const auto err_s = harness::measure_side(sspec);

    // The error activation priced under a *burst's* cache state (stream
    // API): the corrupted frame arrives either as the first packet of a
    // burst (clean steady traffic + scrub preceded it) or as the 5th,
    // after four clean packets of the same burst warmed the caches.
    harness::StreamSpec err_first;
    err_first.base = clean_sspec;
    err_first.base.profile = &b.clean.server;
    err_first.activations = {&b.err.server};
    const double err_s_first_us =
        harness::measure_stream(err_first).steady_us();
    harness::StreamSpec err_mid = err_first;
    err_mid.activations.assign(4, &b.clean.server);
    err_mid.activations.push_back(&b.err.server);
    const double err_s_burst_us =
        harness::measure_stream(err_mid).steady_us();

    harness::SweepOutcome clean_o;
    clean_o.label = cfg.name;
    clean_o.result =
        harness::combine_sides(clean_c, clean_s, b.controller_us,
                               cfg.path_inlining, cfg.path_inlining, params);

    harness::SweepOutcome fault_o;
    fault_o.label = std::string(cfg.name) + "+fault";
    fault_o.result =
        harness::combine_sides(err_c, err_s, b.controller_us,
                               cfg.path_inlining, cfg.path_inlining, params);

    const double icpi_dc = err_c.steady.icpi() - clean_c.steady.icpi();
    const double mcpi_dc = err_c.steady.mcpi() - clean_c.steady.mcpi();
    const double icpi_ds = err_s.steady.icpi() - clean_s.steady.icpi();
    const double mcpi_ds = err_s.steady.mcpi() - clean_s.steady.mcpi();
    // Rate model: each faulted frame wastes one error activation on the
    // receiving side plus one retransmission timeout before recovery.
    const double te_at_5pct =
        clean_o.result.te_us +
        0.05 * ((err_c.tp_us + err_s.tp_us) / 2.0 + kRtoUs);
    // Burst-amortized variant of the same model: under batched delivery
    // most faulted frames land mid-burst, where the clean predecessors
    // already paid the cache warm-up the error path shares.
    const double te_at_5pct_burst =
        clean_o.result.te_us + 0.05 * (err_s_burst_us + kRtoUs);

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

    if (cfg.name == std::string("OUT") && err_c.steady.cycles() > 0 &&
        (icpi_dc != 0.0 || mcpi_dc != 0.0 || icpi_ds != 0.0 ||
         mcpi_ds != 0.0)) {
      out_deltas_nonzero = true;
    }

    t.row({cfg.name, harness::fmt(clean_o.result.te_us),
           std::to_string(err_c.steady.cycles()),
           std::to_string(err_s.steady.cycles()), harness::fmt(icpi_dc, 3),
           harness::fmt(mcpi_dc, 3), harness::fmt(icpi_ds, 3),
           harness::fmt(mcpi_ds, 3), harness::fmt(err_s_burst_us, 2),
           harness::fmt(te_at_5pct)});

    for (const auto& o : {clean_o, fault_o}) {
      harness::SweepJob j;
      j.label = o.label;
      j.kind = net::StackKind::kTcpIp;
      j.client = cfg;
      j.server = cfg;
      outcomes.push_back(o);
      jobs.push_back(std::move(j));
    }
  }

  t.print();
  std::printf(
      "soak cross-check (800 roundtrips, seed 7): faults-off mean %.1f us, "
      "5%% faults mean %.1f us\n",
      soak_clean, soak_fault);

  harness::SweepRunner runner;
  harness::write_sweep_metrics("bench_fault_latency", runner, jobs, outcomes);

  if (!out_deltas_nonzero) {
    std::fprintf(stderr,
                 "FAIL: OUT error-path deltas are all zero — outlined "
                 "blocks did not change the replay\n");
    return 1;
  }
  return 0;
}
