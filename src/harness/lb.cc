#include "harness/lb.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "harness/fleet_internal.h"
#include "harness/recovery.h"
#include "protocols/lance.h"

namespace l96::harness {

namespace {

net::LbWorldOptions world_options(const LbSpec& spec) {
  net::LbWorldOptions opts;
  opts.backends = spec.backends;
  opts.tcp_conn_buckets =
      fleet_detail::conn_bucket_count(spec.fleet.connections);
  opts.lb.track_scheme = spec.fleet.scheme;
  opts.lb.track_capacity = spec.fleet.cache_capacity;
  opts.lb.track_costs = spec.fleet.cache_costs;
  opts.lb.maglev_table_size = spec.maglev_table_size;
  opts.lb.health = spec.health;
  return opts;
}

/// Client fleet -> LB -> backend pool.  A client->LB frame costs
/// controller + conn-track lookup + fast|slow + controller (the wire leg
/// in and the leg out); the forwarding path has one burst position.
class LbTopology final : public fleet_detail::Topology {
 public:
  LbTopology(const LbSpec& spec, const BurstCostTable& costs)
      : world_(spec.fleet.config, spec.fleet.config, spec.fleet.config,
               world_options(spec)),
        costs_(costs),
        health_(spec.health) {
    for (std::size_t i = 0; i < world_.backend_count(); ++i) {
      servers_.push_back(&world_.backend(i));
    }
  }

  net::LbWorld& world() noexcept { return world_; }

  xk::EventManager& events() override { return world_.events(); }
  net::Host& client() override { return world_.client(); }
  const std::vector<net::Host*>& servers() const override { return servers_; }
  std::uint32_t server_ip() override { return world_.vip(); }
  void serve(proto::TcpUpper& sink, std::size_t flows) override {
    for (net::Host* backend : servers_) {
      fleet_detail::serve_flows(*backend, sink, flows);
    }
    world_.lb().start_health_checks();
  }
  void install(const net::ChaosTimeline& chaos,
               std::uint64_t base_us) override {
    chaos.install(world_, base_us);
  }
  code::FlowCacheStats stats() override {
    return world_.lb().conn_track().stats();
  }
  void reset_stats() override { world_.lb().conn_track().reset_stats(); }
  void set_frame_hook(FrameHook hook) override {
    world_.lb().set_forward_hook(
        [hook = std::move(hook)](const code::FlowLookupResult& lr, bool slow,
                                 int) { hook(lr, slow); });
  }
  double price(const code::FlowLookupResult& lr, bool slow,
               std::size_t) const override {
    return costs_.controller_us + lr.cost_us +
           (slow ? costs_.slow_at(0) : costs_.fast_at(0)) +
           costs_.controller_us;
  }
  /// Health recovery needs probes to observe a healed backend: one
  /// recover_threshold's worth of probe intervals of slack.
  std::uint64_t settle_us() const override {
    return (health_.recover_threshold + 1) * health_.interval_us;
  }

 private:
  net::LbWorld world_;
  const BurstCostTable& costs_;
  net::LbHealthParams health_;
  std::vector<net::Host*> servers_;
};

}  // namespace

BurstCostTable measure_lb_costs(const code::StackConfig& cfg,
                                const MachineParams& params) {
  net::LbWorldOptions opts;
  opts.backends = 2;
  net::LbWorld world(cfg, cfg, cfg, opts);
  world.start(1'000'000);
  if (!world.run_until_roundtrips(params.warmup_roundtrips, 60'000'000)) {
    throw std::runtime_error(
        "measure_lb_costs: warm-up ping-pong stalled for config " + cfg.name);
  }

  BurstCostTable table;
  table.kind = net::StackKind::kLb;
  table.config_name = cfg.name;
  table.params_key = machine_params_key(params);
  table.controller_us =
      world.client_wire().params().one_way_us(proto::Lance::kMinFrame);

  // Fast: the next client frame rides the warmed pinned entry.
  code::PathTrace fast;
  world.lb().arm_capture(&fast);
  if (!world.run_until([&] { return world.lb().capture_complete(); },
                       10'000'000)) {
    throw std::runtime_error(
        "measure_lb_costs: fast-path capture stalled for config " + cfg.name);
  }
  const std::size_t fast_split = world.lb().tx_split();

  // Slow: force every conn-track entry stale so the next frame records
  // the standalone rebind (guard failure, Maglev hash + probe, re-pin).
  for (std::size_t b = 0; b < world.backend_count(); ++b) {
    world.lb().conn_track().invalidate_path(static_cast<int>(b));
  }
  code::PathTrace slow;
  world.lb().arm_capture(&slow);
  if (!world.run_until([&] { return world.lb().capture_complete(); },
                       10'000'000)) {
    throw std::runtime_error(
        "measure_lb_costs: slow-path capture stalled for config " + cfg.name);
  }
  const std::size_t slow_split = world.lb().tx_split();

  MeasureSpec fs;
  fs.kind = net::StackKind::kLb;
  fs.cfg = cfg;
  fs.registry = &world.lb().registry();
  fs.trace = &fast;
  fs.split = fast_split;
  fs.seed_offset = 2;  // client 0 / server 1 / LB 2 by convention
  fs.params = params;
  table.fast_us = {measure_side(fs).tp_us};

  // The slow activation replays under the fast capture's layout profile:
  // the image is laid out for the pinned path, so the rebind pays the
  // cold-segment standalone placements.
  MeasureSpec ss = fs;
  ss.trace = &slow;
  ss.profile = &fast;
  ss.split = slow_split;
  table.slow_us = {measure_side(ss).tp_us};
  return table;
}

LbResult run_lb(const LbSpec& spec, const BurstCostTable& costs) {
  const FleetSpec& fleet = spec.fleet;
  fleet_detail::validate_fleet_spec(fleet, costs, net::StackKind::kLb);
  if (spec.backends == 0) {
    throw std::invalid_argument("run_lb: backends must be > 0");
  }
  // The LB topology forwards TCP flows, installs no decoy rules and never
  // churns.
  if (fleet.kind != net::StackKind::kTcpIp) {
    throw std::invalid_argument("run_lb: fleet.kind must be TCP/IP");
  }
  if (fleet.rules != 0) {
    throw std::invalid_argument(
        "run_lb: fleet.rules must be 0 (the LB topology installs no decoy "
        "rules)");
  }
  if (fleet.churn_every != 0) {
    throw std::invalid_argument(
        "run_lb: fleet.churn_every must be 0 (LB rows do not churn)");
  }
  spec.chaos.validate();
  if (const std::string e = script_error(spec.chaos, spec.backends);
      !e.empty()) {
    throw std::invalid_argument("run_lb: " + e);
  }

  LbTopology topo(spec, costs);
  fleet_detail::Disruption disruption;
  disruption.chaos = spec.chaos;
  const fleet_detail::CoreRunResult core =
      fleet_detail::run_tcp_flat(topo, fleet, disruption);

  LbResult r;
  r.spec = spec;
  r.fleet = core.result;

  // Steering verdicts from the LB's rebuild ledger.  Disruption phases:
  // every failed send and repair, plus each window from its start until
  // steering is restored.
  net::LbWorld& world = topo.world();
  const std::vector<net::LbRebuild>& rebuilds = world.lb().rebuilds();
  std::vector<fleet_detail::Interval> phases = core.repairs;
  for (const net::ChaosWindow& w : spec.chaos.windows()) {
    LbSteer st;
    st.window = w;
    st.start_abs_us = core.base_us + w.start_us;
    st.end_abs_us = core.base_us + w.end_us;
    st.samples_in_window =
        fleet_detail::samples_between(core, st.start_abs_us, st.end_abs_us);
    const bool backend_window = w.target == net::ChaosTarget::kBackend ||
                                w.target == net::ChaosTarget::kBackendLink;
    if (backend_window) {
      for (const net::LbRebuild& rb : rebuilds) {
        if (rb.backend == w.index && rb.at_us >= st.start_abs_us &&
            (rb.cause == net::LbRebuildCause::kDrain ||
             rb.cause == net::LbRebuildCause::kHealthDown)) {
          st.steered_away = true;
          st.tta_us = static_cast<double>(rb.at_us - st.start_abs_us);
          break;
        }
      }
      for (const net::LbRebuild& rb : rebuilds) {
        if (rb.backend == w.index && rb.at_us >= st.end_abs_us &&
            (rb.cause == net::LbRebuildCause::kUndrain ||
             rb.cause == net::LbRebuildCause::kHealthUp)) {
          st.restored = true;
          st.ttr_us = static_cast<double>(rb.at_us - st.end_abs_us);
          break;
        }
      }
    }
    const std::uint64_t phase_end =
        st.restored
            ? st.end_abs_us + static_cast<std::uint64_t>(st.ttr_us)
            : std::max(st.end_abs_us, world.events().now());
    phases.push_back({st.start_abs_us, phase_end});
    r.windows.push_back(st);
  }
  const fleet_detail::PhaseSplit split =
      fleet_detail::split_phases(core, phases);
  r.steady = split.outside;
  r.disrupted = split.inside;
  r.steady_samples = split.outside_samples;
  r.disrupted_samples = split.inside_samples;

  r.forwards = world.lb().forwards();
  r.slow_forwards = world.lb().slow_forwards();
  r.returns_forwarded = world.lb().returns_forwarded();
  r.drops_no_backend = world.lb().drops_no_backend();
  r.dark_forwards = world.lb().dark_forwards();
  r.health_probes = world.lb().health_probes();
  r.rebuilds = rebuilds;
  r.blackout_drops = world.client_wire().blackout_drops();
  r.frames_to_dead = world.client().frames_to_dead();
  r.purged_events = world.client().purged_events();
  for (std::size_t i = 0; i < spec.backends; ++i) {
    r.rst_sent += world.backend(i).tcp()->rst_sent();
    r.frames_to_dead += world.backend(i).frames_to_dead();
    r.purged_events += world.backend(i).purged_events();
    r.blackout_drops += world.backend_wire(i).blackout_drops();
    r.backend_incarnations += world.backend(i).incarnation();
  }
  return r;
}

std::string lb_error(const LbResult& r) {
  std::string err = conservation_error(r.fleet);
  bool any_crash = false;
  for (const LbSteer& w : r.windows) any_crash |= w.window.crash;
  if (!any_crash && !r.windows.empty() && r.fleet.lost_packets != 0) {
    fleet_detail::add_clause(
        err, fleet_detail::row_name(r.spec.fleet) +
                 ": a crash-free script lost " +
                 std::to_string(r.fleet.lost_packets) + " packets");
  }
  for (std::size_t i = 0; i < r.windows.size(); ++i) {
    const LbSteer& w = r.windows[i];
    const std::string window = fleet_detail::window_name(
        r.spec.fleet, i, w.window, w.start_abs_us, w.end_abs_us);
    if (!w.steered_away) {
      fleet_detail::add_clause(err, window + " never steered away from");
    }
    if (!w.restored) fleet_detail::add_clause(err, window + " never restored");
  }
  return err;
}

Json lb_json(const BurstCostTable& costs,
             const std::vector<LbResult>& rows) {
  Json section = emit_section("lb", 2);
  section.set("costs", fleet_detail::costs_json(costs));
  Json out_rows = Json::array();
  for (const LbResult& r : rows) {
    const LbSpec& s = r.spec;
    fleet_detail::check_costs(s.fleet, costs, net::StackKind::kLb, "lb_json");
    Json rebuilds = Json::array();
    for (const net::LbRebuild& rb : r.rebuilds) {
      rebuilds.push_back(
          Json::object()
              .set("at_us", rb.at_us)
              .set("cause", net::to_string(rb.cause))
              .set("backend", static_cast<std::uint64_t>(rb.backend))
              .set("remapped", static_cast<std::uint64_t>(rb.remapped))
              .set("remap_fraction",
                   static_cast<double>(rb.remapped) /
                       static_cast<double>(s.maglev_table_size))
              .set("invalidated",
                   static_cast<std::uint64_t>(rb.invalidated))
              .set("pool_size", static_cast<std::uint64_t>(rb.pool_size)));
    }
    Json windows = Json::array();
    for (const LbSteer& w : r.windows) {
      windows.push_back(
          Json::object()
              .set("kind", w.window.drain    ? "drain"
                           : w.window.crash  ? "crash"
                                             : "blackout")
              .set("target", net::to_string(w.window.target))
              .set("index", static_cast<std::uint64_t>(w.window.index))
              .set("start_us", w.start_abs_us)
              .set("end_us", w.end_abs_us)
              .set("samples_in_window", w.samples_in_window)
              .set("steered_away", w.steered_away)
              .set("tta_us", w.tta_us)
              .set("restored", w.restored)
              .set("ttr_us", w.ttr_us));
    }
    Json row = fleet_detail::spec_json(s.fleet);
    row.set("backends", static_cast<std::uint64_t>(s.backends))
        .set("maglev_table_size",
             static_cast<std::uint64_t>(s.maglev_table_size))
        .set("chaos", s.chaos.str())
        .set("health",
             Json::object()
                 .set("interval_us", s.health.interval_us)
                 .set("fail_threshold",
                      static_cast<std::uint64_t>(s.health.fail_threshold))
                 .set("recover_threshold", static_cast<std::uint64_t>(
                                               s.health.recover_threshold))
                 .set("seed", s.health.seed))
        .set("owned_packets", r.fleet.owned_packets)
        .set("packets_sampled", r.fleet.packets_sampled)
        .set("scheduled_sampled", r.fleet.scheduled_sampled)
        .set("handshake_sampled", r.fleet.handshake_sampled)
        .set("dropped_in_churn", r.fleet.dropped_in_churn)
        .set("lost_packets", r.fleet.lost_packets)
        .set("reconnects", r.fleet.reconnects)
        .set("forwards", r.forwards)
        .set("slow_forwards", r.slow_forwards)
        .set("returns_forwarded", r.returns_forwarded)
        .set("drops_no_backend", r.drops_no_backend)
        .set("dark_forwards", r.dark_forwards)
        .set("health_probes", r.health_probes)
        .set("client_retransmits", r.fleet.client_retransmits)
        .set("client_syn_retransmits", r.fleet.client_syn_retransmits)
        .set("rst_sent", r.rst_sent)
        .set("frames_to_dead", r.frames_to_dead)
        .set("blackout_drops", r.blackout_drops)
        .set("purged_events", r.purged_events)
        .set("backend_incarnations",
             static_cast<std::uint64_t>(r.backend_incarnations))
        .set("track", fleet_detail::cache_json(r.fleet.cache))
        .set("latency_us", fleet_detail::percentiles_json(r.fleet.latency))
        .set("steady_us", fleet_detail::percentiles_json(r.steady))
        .set("disrupted_us", fleet_detail::percentiles_json(r.disrupted))
        .set("steady_samples", r.steady_samples)
        .set("disrupted_samples", r.disrupted_samples)
        .set("rebuilds", std::move(rebuilds))
        .set("windows", std::move(windows))
        .set("sim_us", r.fleet.sim_us)
        .set("sample_digest", r.fleet.sample_digest);
    out_rows.push_back(std::move(row));
  }
  section.set("rows", std::move(out_rows));
  return section;
}

}  // namespace l96::harness
