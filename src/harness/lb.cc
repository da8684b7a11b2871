#include "harness/lb.h"

#include <algorithm>
#include <stdexcept>

#include "harness/fleet_internal.h"
#include "protocols/lance.h"

namespace l96::harness {

namespace {

using fleet_detail::kFleetServerPort;

void check_costs(const LbSpec& spec, const LbCostTable& costs) {
  if (costs.config_name != spec.config.name) {
    throw std::invalid_argument(
        "run_lb: cost table measured for " + costs.config_name +
        " does not match row config " + spec.config.name);
  }
  if (costs.params_key != machine_params_key(spec.params)) {
    throw std::invalid_argument(
        "run_lb: cost table was measured under different MachineParams "
        "than the row — measure_lb_costs() once per distinct params");
  }
}

net::LbWorldOptions world_options(const LbSpec& spec) {
  net::LbWorldOptions opts;
  opts.backends = spec.backends;
  opts.tcp_conn_buckets = fleet_detail::conn_bucket_count(spec.connections);
  opts.lb.track_scheme = spec.track_scheme;
  opts.lb.track_capacity = spec.track_capacity;
  opts.lb.track_costs = spec.track_costs;
  opts.lb.maglev_table_size = spec.maglev_table_size;
  opts.lb.health = spec.health;
  return opts;
}

/// Client fleet -> LB -> backend pool.  A client->LB frame costs
/// controller + conn-track lookup + fast|slow + controller (the wire leg
/// in and the leg out); the forwarding path has one burst position.
class LbTopology final : public fleet_detail::Topology {
 public:
  LbTopology(const LbSpec& spec, const LbCostTable& costs)
      : world_(spec.config, spec.config, spec.config, world_options(spec)),
        costs_(costs),
        health_(spec.health) {
    for (std::size_t i = 0; i < world_.backend_count(); ++i) {
      servers_.push_back(&world_.backend(i));
    }
  }

  net::LbWorld& world() noexcept { return world_; }

  xk::EventManager& events() override { return world_.events(); }
  bool run_until(const std::function<bool()>& pred,
                 std::uint64_t max_us) override {
    return world_.run_until(pred, max_us);
  }
  net::Host& client() override { return world_.client(); }
  const std::vector<net::Host*>& servers() const override { return servers_; }
  std::uint32_t server_ip() override { return world_.vip(); }
  void serve(proto::TcpUpper& sink) override {
    for (net::Host* backend : servers_) {
      backend->tcp()->listen(kFleetServerPort, &sink);
      // A rebooted backend must serve again under its new incarnation.
      backend->set_reboot_hook([backend, &sink] {
        backend->tcp()->listen(kFleetServerPort, &sink);
      });
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
           (slow ? costs_.slow_us : costs_.fast_us) + costs_.controller_us;
  }
  /// Health recovery needs probes to observe a healed backend: one
  /// recover_threshold's worth of probe intervals of slack.
  std::uint64_t settle_us() const override {
    return (health_.recover_threshold + 1) * health_.interval_us;
  }

 private:
  net::LbWorld world_;
  const LbCostTable& costs_;
  net::LbHealthParams health_;
  std::vector<net::Host*> servers_;
};

}  // namespace

LbCostTable measure_lb_costs(const code::StackConfig& cfg,
                             const MachineParams& params) {
  net::LbWorldOptions opts;
  opts.backends = 2;
  net::LbWorld world(cfg, cfg, cfg, opts);
  world.start(1'000'000);
  if (!world.run_until_roundtrips(params.warmup_roundtrips, 60'000'000)) {
    throw std::runtime_error(
        "measure_lb_costs: warm-up ping-pong stalled for config " + cfg.name);
  }

  LbCostTable table;
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
  table.fast_us = measure_side(fs).tp_us;

  // The slow activation replays under the fast capture's layout profile:
  // the image is laid out for the pinned path, so the rebind pays the
  // cold-segment standalone placements.
  MeasureSpec ss = fs;
  ss.trace = &slow;
  ss.profile = &fast;
  ss.split = slow_split;
  table.slow_us = measure_side(ss).tp_us;
  return table;
}

LbResult run_lb(const LbSpec& spec, const LbCostTable& costs) {
  if (!spec.config.path_inlining) {
    throw std::invalid_argument(
        "run_lb: spec.config must have path_inlining enabled (the slow-path "
        "fallback is what failover prices)");
  }
  if (spec.backends == 0 || spec.connections == 0 || spec.packets == 0) {
    throw std::invalid_argument(
        "run_lb: backends, connections and packets must all be > 0");
  }
  spec.chaos.validate();
  check_costs(spec, costs);

  // The schedule is the fleet engine's: the same Zipf bursts over the same
  // client ports, with no churn.
  FleetSpec fleet;
  fleet.label = spec.label;
  fleet.config = spec.config;
  fleet.connections = spec.connections;
  fleet.packets = spec.packets;
  fleet.batch = spec.batch;
  fleet.zipf_s = spec.zipf_s;
  fleet.seed = spec.seed;
  fleet.scheme = spec.track_scheme;
  LbTopology topo(spec, costs);
  fleet_detail::Disruption disruption;
  disruption.chaos = spec.chaos;
  const fleet_detail::CoreRunResult core =
      fleet_detail::run_tcp_flat(topo, fleet, disruption);

  LbResult r;
  r.spec = spec;
  r.packets_sampled = core.result.packets_sampled;
  r.scheduled_sampled = core.result.scheduled_sampled;
  r.handshake_sampled = core.result.handshake_sampled;
  r.lost_packets = core.lost_packets;
  r.reconnects = core.reconnects;
  r.client_retransmits = core.client_retransmits;
  r.client_syn_retransmits = core.client_syn_retransmits;
  r.track = core.result.cache;
  r.latency = core.result.latency;
  r.sim_us = core.result.sim_us;
  r.sample_digest = core.result.sample_digest;

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

Json lb_json(const LbCostTable& costs, const std::vector<LbResult>& rows) {
  Json section = emit_section("lb", 1);
  section.set("costs", Json::object()
                           .set("controller_us", costs.controller_us)
                           .set("fast_us", costs.fast_us)
                           .set("slow_us", costs.slow_us)
                           .set("config", costs.config_name)
                           .set("params_key", costs.params_key));
  Json out_rows = Json::array();
  for (const LbResult& r : rows) {
    const LbSpec& s = r.spec;
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
    Json row = Json::object();
    row.set("label", s.label)
        .set("config", s.config.name)
        .set("backends", static_cast<std::uint64_t>(s.backends))
        .set("connections", static_cast<std::uint64_t>(s.connections))
        .set("packets", s.packets)
        .set("batch", static_cast<std::uint64_t>(s.batch))
        .set("zipf_s", s.zipf_s)
        .set("seed", s.seed)
        .set("scheme", code::to_string(s.track_scheme))
        .set("track_capacity", static_cast<std::uint64_t>(s.track_capacity))
        .set("maglev_table_size",
             static_cast<std::uint64_t>(s.maglev_table_size))
        .set("chaos", s.chaos.str())
        .set("health",
             Json::object()
                 .set("interval_us", s.health.interval_us)
                 .set("fail_threshold",
                      static_cast<std::uint64_t>(s.health.fail_threshold))
                 .set("recover_threshold", static_cast<std::uint64_t>(
                                               s.health.recover_threshold)))
        .set("packets_sampled", r.packets_sampled)
        .set("scheduled_sampled", r.scheduled_sampled)
        .set("handshake_sampled", r.handshake_sampled)
        .set("lost_packets", r.lost_packets)
        .set("reconnects", r.reconnects)
        .set("forwards", r.forwards)
        .set("slow_forwards", r.slow_forwards)
        .set("returns_forwarded", r.returns_forwarded)
        .set("drops_no_backend", r.drops_no_backend)
        .set("dark_forwards", r.dark_forwards)
        .set("health_probes", r.health_probes)
        .set("client_retransmits", r.client_retransmits)
        .set("client_syn_retransmits", r.client_syn_retransmits)
        .set("rst_sent", r.rst_sent)
        .set("frames_to_dead", r.frames_to_dead)
        .set("blackout_drops", r.blackout_drops)
        .set("purged_events", r.purged_events)
        .set("backend_incarnations",
             static_cast<std::uint64_t>(r.backend_incarnations))
        .set("track", fleet_detail::cache_json(r.track))
        .set("latency_us", fleet_detail::percentiles_json(r.latency))
        .set("steady_us", fleet_detail::percentiles_json(r.steady))
        .set("disrupted_us", fleet_detail::percentiles_json(r.disrupted))
        .set("steady_samples", r.steady_samples)
        .set("disrupted_samples", r.disrupted_samples)
        .set("rebuilds", std::move(rebuilds))
        .set("windows", std::move(windows))
        .set("sim_us", r.sim_us)
        .set("sample_digest", r.sample_digest);
    out_rows.push_back(std::move(row));
  }
  section.set("rows", std::move(out_rows));
  return section;
}

}  // namespace l96::harness
