#include "harness/recovery.h"

#include <algorithm>
#include <stdexcept>

#include "harness/fleet_internal.h"

namespace l96::harness {

RecoveryResult run_recovery(const RecoverySpec& rspec,
                            const BurstCostTable& costs) {
  const FleetSpec& spec = rspec.fleet;
  if (spec.kind != net::StackKind::kTcpIp) {
    throw std::invalid_argument(
        "run_recovery: TCP/IP only (the RPC fleet has no reconnect "
        "machinery to measure)");
  }
  fleet_detail::validate_fleet_spec(spec, costs, spec.kind);
  rspec.chaos.validate();
  for (const net::ChaosEvent& e : rspec.chaos.events()) {
    if (e.kind == net::ChaosKind::kHostCrash &&
        e.target == net::ChaosTarget::kClient) {
      throw std::invalid_argument(
          "run_recovery: the script must not crash the client (it is the "
          "measuring instrument)");
    }
  }

  fleet_detail::DirectTopology topo(spec, costs, spec.connections);
  const fleet_detail::CoreRunResult core = fleet_detail::run_tcp_flat(
      topo, spec,
      {rspec.chaos, rspec.keepalive_idle_us, rspec.keepalive_intvl_us,
       rspec.keepalive_probes, rspec.max_syn_rexmts});

  RecoveryResult r;
  r.spec = rspec;
  r.fleet = core.result;
  r.lost_packets = core.lost_packets;
  r.reconnects = core.reconnects;
  r.client_retransmits = core.client_retransmits;
  r.client_syn_retransmits = core.client_syn_retransmits;

  // Recovery phases: every failed send and reconnect repair, plus each
  // window from its start to the first completed delivery at or after its
  // end (which also defines the window's time-to-recover).
  std::vector<fleet_detail::Interval> phases = core.repairs;
  for (const net::ChaosWindow& w : rspec.chaos.windows()) {
    RecoveryWindow rw;
    rw.window = w;
    rw.start_abs_us = core.base_us + w.start_us;
    rw.end_abs_us = core.base_us + w.end_us;
    rw.samples_in_window =
        fleet_detail::samples_between(core, rw.start_abs_us, rw.end_abs_us);
    const auto it = std::lower_bound(core.delivery_times.begin(),
                                     core.delivery_times.end(),
                                     rw.end_abs_us);
    if (it != core.delivery_times.end()) {
      rw.recovered = true;
      rw.first_delivery_abs_us = *it;
      rw.ttr_us = static_cast<double>(*it - rw.end_abs_us);
      phases.push_back({rw.start_abs_us, *it});
    } else {
      phases.push_back({rw.start_abs_us, ~std::uint64_t{0}});
    }
    r.windows.push_back(rw);
  }
  const fleet_detail::PhaseSplit split =
      fleet_detail::split_phases(core, phases);
  r.steady = split.outside;
  r.recovery = split.inside;
  r.steady_samples = split.outside_samples;
  r.recovery_samples = split.inside_samples;

  net::World& world = topo.world();
  r.connect_failures = world.client().tcp()->connect_failures();
  r.keepalive_probes_sent = world.client().tcp()->keepalive_probes_sent();
  r.keepalive_reaps = world.client().tcp()->keepalive_reaps();
  // Server-side counters reset with each incarnation; rst_sent from the
  // current incarnation covers the post-reboot convergence storm.
  r.rst_sent = world.server().tcp()->rst_sent();
  r.blackout_drops = world.wire().blackout_drops();
  r.frames_to_dead =
      world.server().frames_to_dead() + world.client().frames_to_dead();
  r.purged_events =
      world.server().purged_events() + world.client().purged_events();
  r.server_incarnation = world.server().incarnation();
  return r;
}

Json recovery_json(const BurstCostTable& costs,
                   const std::vector<RecoveryResult>& rows) {
  Json section = emit_section("recovery", 1);
  section.set("costs", fleet_detail::costs_json(costs));
  Json out_rows = Json::array();
  for (const RecoveryResult& r : rows) {
    Json windows = Json::array();
    for (const RecoveryWindow& w : r.windows) {
      windows.push_back(
          Json::object()
              .set("kind", w.window.crash ? "crash" : "blackout")
              .set("target", net::to_string(w.window.target))
              .set("start_us", w.start_abs_us)
              .set("end_us", w.end_abs_us)
              .set("samples_in_window", w.samples_in_window)
              .set("recovered", w.recovered)
              .set("ttr_us", w.ttr_us));
    }
    Json row = fleet_detail::spec_json(r.spec.fleet);
    row.set("chaos", r.spec.chaos.str())
        .set("keepalive_idle_us", r.spec.keepalive_idle_us)
        .set("max_syn_rexmts",
             static_cast<std::uint64_t>(r.spec.max_syn_rexmts))
        .set("packets_sampled", r.fleet.packets_sampled)
        .set("scheduled_sampled", r.fleet.scheduled_sampled)
        .set("handshake_sampled", r.fleet.handshake_sampled)
        .set("dropped_in_churn", r.fleet.dropped_in_churn)
        .set("lost_packets", r.lost_packets)
        .set("reconnects", r.reconnects)
        .set("connect_failures", r.connect_failures)
        .set("client_retransmits", r.client_retransmits)
        .set("client_syn_retransmits", r.client_syn_retransmits)
        .set("keepalive_probes_sent", r.keepalive_probes_sent)
        .set("keepalive_reaps", r.keepalive_reaps)
        .set("rst_sent", r.rst_sent)
        .set("blackout_drops", r.blackout_drops)
        .set("frames_to_dead", r.frames_to_dead)
        .set("purged_events", r.purged_events)
        .set("server_incarnation",
             static_cast<std::uint64_t>(r.server_incarnation))
        .set("slow_packets", r.fleet.slow_packets)
        .set("churns", r.fleet.churns)
        .set("cache", fleet_detail::cache_json(r.fleet.cache))
        .set("latency_us", fleet_detail::percentiles_json(r.fleet.latency))
        .set("steady_us", fleet_detail::percentiles_json(r.steady))
        .set("recovery_us", fleet_detail::percentiles_json(r.recovery))
        .set("steady_samples", r.steady_samples)
        .set("recovery_samples", r.recovery_samples)
        .set("windows", std::move(windows))
        .set("sim_us", r.fleet.sim_us)
        .set("sample_digest", r.fleet.sample_digest);
    out_rows.push_back(std::move(row));
  }
  section.set("rows", std::move(out_rows));
  return section;
}

}  // namespace l96::harness
