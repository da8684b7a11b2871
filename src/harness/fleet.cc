#include "harness/fleet.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "harness/fleet_internal.h"
#include "protocols/lance.h"

namespace l96::harness {

namespace {

std::uint64_t fnv1a_seed() { return 1469598103934665603ULL; }

void fnv1a_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}

template <typename T>
void fnv1a_value(std::uint64_t& h, T v) {
  fnv1a_bytes(h, &v, sizeof(v));
}

}  // namespace

std::uint64_t machine_params_key(const MachineParams& p) {
  std::uint64_t h = fnv1a_seed();
  fnv1a_value(h, p.mem.icache_bytes);
  fnv1a_value(h, p.mem.dcache_bytes);
  fnv1a_value(h, p.mem.bcache_bytes);
  fnv1a_value(h, p.mem.block_bytes);
  fnv1a_value(h, p.mem.wbuf_depth);
  fnv1a_value(h, p.mem.b_hit_cycles);
  fnv1a_value(h, p.mem.b_hit_seq_cycles);
  fnv1a_value(h, p.mem.dram_cycles);
  fnv1a_value(h, p.mem.wbuf_retire_cycles);
  fnv1a_value(h, p.mem.ifetch_prefetch_next);
  fnv1a_value(h, p.cpu.taken_branch_penalty);
  fnv1a_value(h, p.cpu.imul_penalty);
  fnv1a_value(h, p.cpu.dual_issue);
  fnv1a_value(h, p.cpu.pair_success_permille);
  fnv1a_value(h, p.cpu.frequency_hz);
  fnv1a_value(h, p.warmup_roundtrips);
  fnv1a_value(h, p.warmup_passes);
  fnv1a_value(h, p.scrub_fraction);
  fnv1a_value(h, p.scrub_fraction_d);
  fnv1a_value(h, p.scrub_seed);
  return h;
}

BurstCostTable measure_burst_costs(net::StackKind kind,
                                   const code::StackConfig& cfg,
                                   std::size_t max_positions,
                                   const MachineParams& params) {
  if (max_positions == 0) {
    throw std::invalid_argument(
        "measure_burst_costs: max_positions must be >= 1");
  }
  Experiment e(kind, cfg, cfg, params);
  e.capture();

  BurstCostTable table;
  table.kind = kind;
  table.config_name = cfg.name;
  table.params_key = machine_params_key(params);
  table.controller_us =
      e.world().wire().params().one_way_us(proto::Lance::kMinFrame);

  // Fast path: the server's receive activation as captured (the inlined
  // composite when path_inlining is on), replayed back to back —
  // position 0 is the classic steady replay, later positions inherit the
  // residue their predecessors left in the primary caches.
  const MeasureSpec sspec = e.server_spec();
  StreamSpec fast_stream;
  fast_stream.base = sspec;
  fast_stream.burst = max_positions;
  const StreamMeasurement fast = measure_stream(fast_stream);
  table.fast_us.reserve(max_positions);
  for (const StreamPosition& p : fast.positions) {
    table.fast_us.push_back(p.tp_us);
  }

  // Slow path: the same activation bracketed by slow-path markers, lowered
  // under the same (fast-trace-profiled) image — the lowering then uses the
  // cold-segment standalone placements, which is what executes when the
  // composite's guard fails on a stale flow.  slow_us[p] prices the slow
  // activation arriving at burst position p, i.e. after p back-to-back
  // fast activations warmed the caches.
  code::PathTrace slow_trace;
  slow_trace.events.push_back({code::EventKind::kMarker, code::kInvalidFn, 0,
                               code::Marker::kSlowPathBegin, 0});
  slow_trace.events.insert(slow_trace.events.end(),
                           e.server_trace().events.begin(),
                           e.server_trace().events.end());
  slow_trace.events.push_back({code::EventKind::kMarker, code::kInvalidFn, 0,
                               code::Marker::kSlowPathEnd, 0});
  table.slow_us.reserve(max_positions);
  for (std::size_t p = 0; p < max_positions; ++p) {
    StreamSpec slow_stream;
    slow_stream.base = sspec;
    // The slow trace is the stream's base activation so warm-up replays it
    // (exactly what the single-activation steady replay does — slow_us[0]
    // is that replay's cost); the image profile stays the fast capture.
    slow_stream.base.trace = &slow_trace;
    slow_stream.base.profile = &e.server_trace();
    slow_stream.base.split = sspec.split + 1;  // one marker prepended
    slow_stream.activations.assign(p, sspec.trace);
    slow_stream.activations.push_back(&slow_trace);
    const StreamMeasurement slow = measure_stream(slow_stream);
    table.slow_us.push_back(slow.steady_us());
  }
  return table;
}

ZipfSampler::ZipfSampler(std::size_t n, double s, std::uint64_t seed)
    : state_(seed != 0 ? seed : 0x9E3779B97F4A7C15ULL) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  cdf_.resize(n);
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (std::size_t k = 0; k < n; ++k) cdf_[k] /= total;
  cdf_.back() = 1.0;  // guard against rounding

  // About one guide point per CDF entry, at most 2^16 of them.  The guide
  // points g / 2^bits are exact doubles, and cdf_.back() == 1.0 bounds
  // every scan below n.
  while (guide_bits_ < 16 && (std::size_t{1} << guide_bits_) < n) {
    ++guide_bits_;
  }
  const std::size_t points = (std::size_t{1} << guide_bits_) + 1;
  guide_.resize(points);
  std::size_t k = 0;
  for (std::size_t g = 0; g < points; ++g) {
    const double at = std::ldexp(static_cast<double>(g),
                                 -static_cast<int>(guide_bits_));
    while (cdf_[k] < at) ++k;
    guide_[g] = static_cast<std::uint32_t>(k);
  }
}

std::size_t ZipfSampler::next() {
  // xorshift64* — deterministic, seed-reproducible.
  state_ ^= state_ >> 12;
  state_ ^= state_ << 25;
  state_ ^= state_ >> 27;
  const std::uint64_t u = state_ * 0x2545F4914F6CDD1DULL;
  const std::uint64_t m = u >> 11;  // 53 bits
  const double r = static_cast<double>(m) * 0x1.0p-53;
  // guide_[g] <= answer <= guide_[g + 1] because g / 2^bits <= r <
  // (g + 1) / 2^bits; a bracket with no entry >= r yields guide_[g + 1].
  const std::size_t g = static_cast<std::size_t>(m >> (53 - guide_bits_));
  const auto it = std::lower_bound(cdf_.begin() + guide_[g],
                                   cdf_.begin() + guide_[g + 1], r);
  return static_cast<std::size_t>(it - cdf_.begin());
}

namespace fleet_detail {

std::uint64_t fnv1a_init() { return fnv1a_seed(); }

void fnv1a_value_d(std::uint64_t& h, double v) { fnv1a_bytes(h, &v, sizeof v); }

LatencyPercentiles percentiles(std::vector<double> s) {
  LatencyPercentiles p;
  if (s.empty()) return p;
  std::sort(s.begin(), s.end());
  const auto at = [&](double q) {
    std::size_t i = static_cast<std::size_t>(q * static_cast<double>(s.size()));
    if (i >= s.size()) i = s.size() - 1;
    return s[i];
  };
  p.p50 = at(0.50);
  p.p90 = at(0.90);
  p.p99 = at(0.99);
  p.p999 = at(0.999);
  double sum = 0;
  for (double v : s) sum += v;
  p.mean = sum / static_cast<double>(s.size());
  p.max = s.back();
  return p;
}

std::vector<ScheduledBurst> build_schedule(const FleetSpec& spec) {
  // One Zipf draw per burst, the last burst truncated, and the churn
  // condition evaluated against the global sent count.
  std::vector<ScheduledBurst> schedule;
  ZipfSampler zipf(spec.connections, spec.zipf_s, spec.seed);
  std::uint64_t sent = 0;
  while (sent < spec.packets) {
    ScheduledBurst b;
    b.flow = zipf.next();
    b.len = std::min<std::uint64_t>(spec.batch == 0 ? 1 : spec.batch,
                                    spec.packets - sent);
    sent += b.len;
    b.churn_after = spec.churn_every != 0 && sent < spec.packets &&
                    (sent / spec.churn_every) * spec.churn_every >
                        sent - b.len;
    schedule.push_back(b);
  }
  return schedule;
}

std::size_t conn_bucket_count(std::size_t flows) {
  std::size_t buckets = 64;
  while (buckets < flows && buckets < (std::size_t{1} << 16)) buckets <<= 1;
  return buckets;
}

DirectTopology::DirectTopology(const FleetSpec& spec,
                               const BurstCostTable& costs, std::size_t flows)
    : world_(spec.kind, spec.config, spec.config,
             net::WorldOptions{.tcp_conn_buckets = conn_bucket_count(flows)}),
      costs_(costs) {
  net::Host& server = world_.server();
  server.enable_flow_cache(spec.scheme, spec.cache_capacity,
                           spec.cache_costs);
  if (spec.rules > 0) {
    server.install_scaled_classifier(spec.rules, spec.rule_seed);
  }
  servers_.push_back(&server);
}

void serve_flows(net::Host& server, proto::TcpUpper& sink,
                 std::size_t flows) {
  const auto listen = [&server, &sink, flows] {
    for (std::size_t p = 0; p < server_port_count(flows); ++p) {
      server.tcp()->listen(static_cast<std::uint16_t>(kFleetServerPort + p),
                           &sink);
    }
  };
  listen();
  // A rebooted server must serve again: the fresh stack re-listens (the
  // deliver hook and flow cache live on the Host and survive the crash).
  server.set_reboot_hook(listen);
}

void DirectTopology::serve(proto::TcpUpper& sink, std::size_t flows) {
  serve_flows(world_.server(), sink, flows);
}

double DirectTopology::price(const code::FlowLookupResult& lr, bool slow,
                             std::size_t pos) const {
  return costs_.controller_us + lr.cost_us +
         (slow ? costs_.slow_at(pos) : costs_.fast_at(pos));
}

std::uint64_t samples_between(const CoreRunResult& core, std::uint64_t begin,
                              std::uint64_t end) {
  return static_cast<std::uint64_t>(
      std::count_if(core.sample_times.begin(), core.sample_times.end(),
                    [&](std::uint64_t t) { return t >= begin && t < end; }));
}

PhaseSplit split_phases(const CoreRunResult& core,
                        const std::vector<Interval>& phases) {
  std::vector<double> outside;
  std::vector<double> inside;
  for (std::size_t i = 0; i < core.samples.size(); ++i) {
    const std::uint64_t t = core.sample_times[i];
    const bool in = std::any_of(
        phases.begin(), phases.end(),
        [t](const Interval& p) { return t >= p.begin && t <= p.end; });
    (in ? inside : outside).push_back(core.samples[i].us);
  }
  PhaseSplit split;
  split.outside_samples = outside.size();
  split.inside_samples = inside.size();
  split.outside = percentiles(std::move(outside));
  split.inside = percentiles(std::move(inside));
  return split;
}

Json percentiles_json(const LatencyPercentiles& p) {
  return Json::object()
      .set("p50", p.p50)
      .set("p90", p.p90)
      .set("p99", p.p99)
      .set("p999", p.p999)
      .set("mean", p.mean)
      .set("max", p.max);
}

Json cache_json(const code::FlowCacheStats& c) {
  return Json::object()
      .set("lookups", c.lookups)
      .set("hits", c.hits)
      .set("misses", c.misses)
      .set("stale_hits", c.stale_hits)
      .set("unkeyed", c.unkeyed)
      .set("unmatched_scans", c.unmatched_scans)
      .set("rules_examined", c.rules_examined)
      .set("hit_ratio", c.hit_ratio())
      .set("stale_ratio", c.stale_ratio())
      .set("cost_us", c.cost_us);
}

Json spec_json(const FleetSpec& s) {
  return Json::object()
      .set("label", s.label)
      .set("kind", net::to_string(s.kind))
      .set("config", s.config.name)
      .set("scheme", code::to_string(s.scheme))
      .set("connections", static_cast<std::uint64_t>(s.connections))
      .set("packets", s.packets)
      .set("batch", static_cast<std::uint64_t>(s.batch))
      .set("zipf_s", s.zipf_s)
      .set("seed", s.seed)
      .set("cache_capacity", static_cast<std::uint64_t>(s.cache_capacity))
      .set("rules", static_cast<std::uint64_t>(s.rules))
      .set("rule_seed", s.rule_seed)
      .set("cache_costs", Json::object()
                              .set("measured", s.cache_costs.measured)
                              .set("hit_us", s.cache_costs.hit_us)
                              .set("probe_us", s.cache_costs.probe_us)
                              .set("per_rule_us", s.cache_costs.per_rule_us))
      .set("churn_every", s.churn_every);
}

Json costs_json(const BurstCostTable& costs) {
  Json fast = Json::array();
  for (double v : costs.fast_us) fast.push_back(v);
  Json slow = Json::array();
  for (double v : costs.slow_us) slow.push_back(v);
  return Json::object()
      .set("controller_us", costs.controller_us)
      .set("fast_us", std::move(fast))
      .set("slow_us", std::move(slow))
      .set("config", costs.config_name)
      .set("params_key", costs.params_key);
}

}  // namespace fleet_detail

namespace {

using fleet_detail::CoreRunResult;
using fleet_detail::DirectTopology;
using fleet_detail::Disruption;
using fleet_detail::flow_ports;
using fleet_detail::kFleetRpcProcBase;
using fleet_detail::ScheduledBurst;
using fleet_detail::TaggedSample;
using fleet_detail::Topology;

/// Connections are opened in waves this big: a wave's handshakes complete
/// before the next wave's SYNs are offered, so a large fleet never queues
/// thousands of SYNs behind the 10 Mb/s wire into an RTO storm.  A fleet
/// at or under the wave size connects everything, then waits.
constexpr std::size_t kEstablishWave = 256;

/// Server-side sink: counts completed deliveries (no echo — the schedule
/// is client-driven; the server's TCP still ACKs), timestamping them when
/// the report needs the times.
class FleetSink final : public proto::TcpUpper {
 public:
  FleetSink(xk::EventManager& events, std::vector<std::uint64_t>* times)
      : events_(events), times_(times) {}
  void tcp_receive(proto::TcpConn&, xk::Message&) override {
    ++messages;
    if (times_ != nullptr) times_->push_back(events_.now());
  }
  std::uint64_t messages = 0;

 private:
  xk::EventManager& events_;
  std::vector<std::uint64_t>* times_;
};

class FleetSource final : public proto::TcpUpper {
 public:
  void tcp_established(proto::TcpConn&) override { ++established; }
  void tcp_receive(proto::TcpConn&, xk::Message&) override {}
  /// Running count of client-side establishments, so a fleet of any size
  /// waits for its handshakes with an O(1) predicate.
  std::uint64_t established = 0;
};

[[noreturn]] void fleet_fail(const FleetSpec& spec, const char* what,
                             std::uint64_t packet) {
  throw std::runtime_error("fleet run stalled (" +
                           (spec.label.empty() ? std::string("unlabeled")
                                               : spec.label) +
                           ", scheme=" + code::to_string(spec.scheme) +
                           "): " + what + " at scheduled packet " +
                           std::to_string(packet));
}

/// The owned packets the law accounts for: priced as scheduled traffic,
/// dropped in churn, or lost with their connection.
std::uint64_t accounted(const FleetResult& r) {
  return r.scheduled_sampled + r.dropped_in_churn + r.lost_packets;
}

std::uint64_t fnv1a_samples(const std::vector<double>& samples) {
  std::uint64_t h = fnv1a_seed();
  for (double v : samples) fnv1a_value(h, v);
  return h;
}

/// The per-frame half of the engine, shared by the TCP and RPC loops: it
/// prices every inbound frame at its burst position, tags it with its
/// global (burst, phase) merge key, and attributes it to scheduled or
/// handshake traffic.
///
/// Positions: a burst's frames are priced at their position in it; a
/// slow-path frame resets the position (the standalone slow path just
/// swept the primary caches, so the next packet re-warms from scratch),
/// and frames outside a burst price as independent first-in-burst
/// activations without advancing it — so batch == 1 prices every packet
/// at position 0.
///
/// Attribution is resolved one frame late: a frame counts as scheduled
/// only if it was priced inside a burst AND a delivery completed before
/// the next frame (or the next settle()).  Keepalive probes, stray ACKs
/// and RSTs that land mid-burst under a failure script price like any
/// other activation but stay handshake traffic, so packet conservation
/// (conservation_error) survives the script.  Without
/// one, every in-burst frame is a scheduled data packet.
class FrameLedger {
 public:
  FrameLedger(Topology& topo, CoreRunResult& out,
              const std::uint64_t& delivered, bool timed)
      : topo_(topo), out_(out), delivered_(delivered), timed_(timed) {
    topo.set_frame_hook([this](const code::FlowLookupResult& lr, bool slow) {
      on_frame(lr, slow);
    });
  }
  FrameLedger(const FrameLedger&) = delete;
  FrameLedger& operator=(const FrameLedger&) = delete;

  /// The global burst later frames are tagged with.
  void at_burst(std::uint64_t burst) { burst_ = burst; }
  void begin_burst() {
    in_burst_ = true;
    pos_ = 0;
  }
  void end_burst() { in_burst_ = false; }

  /// Attribute the pending frame, if any.
  void settle() {
    if (!pending_) return;
    pending_ = false;
    if (pending_in_burst_ && delivered_ > attributed_) {
      ++out_.result.scheduled_sampled;
    } else {
      ++out_.result.handshake_sampled;
    }
    attributed_ = delivered_;
  }

 private:
  void on_frame(const code::FlowLookupResult& lr, bool slow) {
    settle();
    const double us = topo_.price(lr, slow, in_burst_ ? pos_ : 0);
    if (slow) {
      pos_ = 0;
      ++out_.result.slow_packets;
    } else if (in_burst_) {
      ++pos_;
    }
    out_.samples.push_back({burst_, in_burst_ ? 0u : 1u, us});
    if (timed_) out_.sample_times.push_back(topo_.events().now());
    pending_ = true;
    pending_in_burst_ = in_burst_;
  }

  Topology& topo_;
  CoreRunResult& out_;
  const std::uint64_t& delivered_;
  const bool timed_;
  std::uint64_t burst_ = 0;
  bool in_burst_ = false;
  std::size_t pos_ = 0;
  bool pending_ = false;
  bool pending_in_burst_ = false;
  std::uint64_t attributed_ = 0;
};

void finish_core(CoreRunResult& out, Topology& topo) {
  FleetResult& r = out.result;
  r.packets_sampled = out.samples.size();
  r.cache = topo.stats();
  std::vector<double> flat;
  flat.reserve(out.samples.size());
  for (const TaggedSample& s : out.samples) flat.push_back(s.us);
  r.latency = fleet_detail::percentiles(flat);
  r.sim_us = static_cast<double>(topo.events().now());
  r.sample_digest = fnv1a_samples(flat);
}

/// The flows one world owns: `local[i]` numbers global flow i among them
/// in ascending global order (the establishment order, and the numbering
/// flow_ports assigns ports by), or is kForeign when another core owns it.
/// Built once per world, so each burst finds its connection in O(1).
struct OwnedFlows {
  static constexpr std::uint32_t kForeign = ~std::uint32_t{0};
  std::vector<std::uint32_t> local;
  std::size_t count = 0;
};

OwnedFlows owned_flows(const std::vector<std::uint32_t>& flow_core,
                       std::uint32_t core_id) {
  OwnedFlows owned;
  owned.local.assign(flow_core.size(), OwnedFlows::kForeign);
  for (std::size_t i = 0; i < flow_core.size(); ++i) {
    if (flow_core[i] == core_id) {
      owned.local[i] = static_cast<std::uint32_t>(owned.count++);
    }
  }
  return owned;
}

bool alive(const proto::TcpConn* c) {
  return c != nullptr && c->state() == proto::TcpState::kEstablished;
}

/// The closed-loop TCP engine: the flows in `owned` execute their bursts
/// of the global schedule through `topo`, optionally under `disruption`.
CoreRunResult run_tcp_core(Topology& topo, const FleetSpec& spec,
                           const std::vector<ScheduledBurst>& schedule,
                           const OwnedFlows& owned, std::uint32_t core_id,
                           const Disruption* disruption) {
  CoreRunResult out;
  FleetResult& r = out.result;
  r.spec = spec;
  const bool timed = disruption != nullptr;

  net::Host& client = topo.client();
  if (timed) {
    // Survival knobs are touched only when set, so a knob-free row
    // evolves exactly like the plain fleet.
    std::vector<net::Host*> hosts = topo.servers();
    hosts.insert(hosts.begin(), &client);
    for (net::Host* h : hosts) {
      if (disruption->keepalive_idle_us != 0) {
        h->set_tcp_keepalive(disruption->keepalive_idle_us,
                             disruption->keepalive_intvl_us,
                             disruption->keepalive_probes);
      }
      if (disruption->max_syn_rexmts != 0) {
        h->set_tcp_max_syn_rexmts(disruption->max_syn_rexmts);
      }
    }
  }

  FleetSink sink(topo.events(), timed ? &out.delivery_times : nullptr);
  FleetSource source;
  topo.serve(sink, owned.count);
  const auto connect = [&](std::size_t local) {
    const fleet_detail::FlowPorts ports = flow_ports(local);
    return client.tcp()->connect(topo.server_ip(), ports.client, ports.server,
                                 &source);
  };
  // Let the world go quiet: a handshake's trailing ACK is still in flight
  // when the client sees the connection established.
  const auto drain = [&] { topo.run_until([] { return false; }, 500'000); };

  std::vector<proto::TcpConn*> conns(owned.count, nullptr);
  for (std::size_t wave = 0; wave < owned.count; wave += kEstablishWave) {
    const std::size_t wave_end = std::min(owned.count, wave + kEstablishWave);
    for (std::size_t j = wave; j < wave_end; ++j) conns[j] = connect(j);
    if (!topo.run_until([&] { return source.established >= wave_end; },
                        60'000'000)) {
      fleet_fail(spec, "connection fleet did not establish", 0);
    }
  }
  drain();
  // Handshake traffic warmed the cache; measure the schedule only.
  topo.reset_stats();

  // Schedule zero: the failure script is anchored here.  A script only
  // teaches anything if it overlaps live traffic, so the schedule is paced
  // across 1.25x the script's span: every window meets traffic and the
  // final fifth of the packets land after the last one, giving each
  // window a first post-fault delivery to measure.
  out.base_us = topo.events().now();
  std::uint64_t pace_span_us = 0;
  std::uint64_t horizon = out.base_us;
  if (timed) {
    if (!disruption->chaos.empty()) {
      topo.install(disruption->chaos, out.base_us);
    }
    for (const net::ChaosWindow& w : disruption->chaos.windows()) {
      pace_span_us = std::max(pace_span_us, w.end_us);
    }
    horizon = out.base_us + pace_span_us + topo.settle_us();
    pace_span_us += pace_span_us / 4;
  }

  out.samples.reserve(spec.packets / (core_id + 1) + 16);
  FrameLedger ledger(topo, out, sink.messages, timed);

  const auto retire = [&](proto::TcpConn* c) {
    r.client_retransmits += c->retransmits();
    r.client_syn_retransmits += c->syn_retransmits();
    client.tcp()->destroy(c);
  };
  // Tear down the server side of local flow j's 4-tuple wherever a live
  // server still holds it, so the reconnect's SYN reaches a listener.
  // Unbinding the server side fires the demux hook and marks the flow's
  // cache entry stale.  The lookup is by key, not a connection scan: every
  // topology has exactly one client, and the LB is DSR (it rewrites only
  // the MAC), so every backend binds the flow under the client's own IP.
  const auto drop_remnant = [&](std::size_t local) {
    const fleet_detail::FlowPorts ports = flow_ports(local);
    for (net::Host* h : topo.servers()) {
      if (h->crashed()) continue;
      if (proto::TcpConn* c = h->tcp()->find(client.address().ip,
                                             ports.server, ports.client)) {
        h->tcp()->destroy(c);
      }
    }
  };
  // Re-establish the dead conns[k] (RST from a new incarnation or a
  // remapped backend, keepalive reap, or SYN-retry exhaustion on an
  // earlier attempt).  The repair is recovery work, however late the
  // schedule discovers the damage.
  const auto repair = [&](std::size_t k, std::uint64_t sent) {
    const std::uint64_t begin = topo.events().now();
    for (std::size_t attempt = 1; !alive(conns[k]); ++attempt) {
      if (attempt > 64) {
        fleet_fail(spec, "connection could not be re-established", sent);
      }
      if (conns[k] != nullptr) {
        retire(conns[k]);
        conns[k] = nullptr;
      }
      drop_remnant(k);
      proto::TcpConn* fresh = conns[k] = connect(k);
      ++r.reconnects;
      if (!topo.run_until(
              [fresh] {
                return fresh->state() == proto::TcpState::kEstablished ||
                       fresh->state() == proto::TcpState::kClosed;
              },
              60'000'000)) {
        fleet_fail(spec, "reconnect neither completed nor failed", sent);
      }
    }
    drain();
    out.repairs.push_back({begin, topo.events().now()});
  };

  std::array<std::uint8_t, 32> payload{};
  payload.fill(0x5A);
  const bool churn_here = owned.local[0] != OwnedFlows::kForeign;
  std::uint64_t scheduled = 0;  // global schedule's sends before this burst
  std::uint64_t sent = 0;       // this world's sends
  for (std::size_t b = 0; b < schedule.size(); ++b) {
    const ScheduledBurst& sb = schedule[b];
    ledger.at_burst(b);
    if (pace_span_us != 0) {
      // advance_to, not run_until: the send must happen at the due tick
      // exactly.  run_until only observes time when an event fires, and in
      // an otherwise idle world the next event can be the far edge of a
      // window — overshooting it would skip the disruption entirely.
      const std::uint64_t due =
          out.base_us + (scheduled * pace_span_us) / spec.packets;
      if (topo.events().now() < due) topo.events().advance_to(due);
    }
    scheduled += sb.len;

    if (const std::size_t k = owned.local[sb.flow];
        k != OwnedFlows::kForeign) {
      // A flow lives on exactly one core, so its burst is ours whole.
      ++r.bursts;
      r.owned_packets += sb.len;
      ledger.begin_burst();
      for (std::uint64_t j = 0; j < sb.len; ++j) {
        if (!alive(conns[k])) {
          // The connection died under the burst: repair it outside the
          // burst so the reconnect storm prices as handshake traffic.
          ledger.end_burst();
          repair(k, sent);
          ledger.begin_burst();
        }
        const std::uint64_t attempt_us = topo.events().now();
        proto::TcpConn* sender = conns[k];
        sender->send(payload);
        ++sent;
        const std::uint64_t goal = sent - r.lost_packets;
        if (!topo.run_until(
                [&sink, sender, goal] {
                  return sink.messages >= goal ||
                         sender->state() == proto::TcpState::kClosed;
                },
                60'000'000)) {
          fleet_fail(spec, "scheduled packet was not delivered", sent - 1);
        }
        if (sink.messages < goal) {
          // The connection died with the byte undelivered; it is gone
          // with the old sndbuf.  The whole failed attempt — the segment
          // that found the dead peer, and whatever answered it — is
          // recovery work.
          ++r.lost_packets;
          out.repairs.push_back({attempt_us, topo.events().now()});
        }
      }
      ledger.end_burst();
      ledger.settle();
      // Every packet sent was priced, lost with its connection, or torn
      // down in flight — and the last must be accounted, not ignored.  The
      // sends are counted apart from owned_packets, so a send loop that
      // drifts from the schedule breaks the packet law.
      if (accounted(r) < sent) r.dropped_in_churn += sent - accounted(r);
    }

    if (sb.churn_after && churn_here && alive(conns[0])) {
      // Close and reopen the hottest flow (global flow 0 is this core's
      // local index 0).  Quiesce it first so no data is in flight, tear
      // down both endpoints, then reconnect on the same 4-tuple: the
      // reopened flow's first inbound frame is a stale hit and replays
      // through the slow path.
      if (!topo.run_until([&] { return conns[0]->bytes_unacked() == 0; },
                          60'000'000)) {
        fleet_fail(spec, "churn victim did not quiesce", sent - 1);
      }
      drop_remnant(0);
      retire(conns[0]);
      conns[0] = connect(0);
      if (!topo.run_until(
              [&] {
                return conns[0]->state() == proto::TcpState::kEstablished;
              },
              60'000'000)) {
        fleet_fail(spec, "churned connection did not re-establish", sent - 1);
      }
      // Drain the handshake's trailing ACK now, outside any burst, so it
      // is priced as handshake traffic and cannot advance the next
      // burst's position.
      drain();
      ++r.churns;
    }
  }

  // Let the script finish so every window gets a verdict.
  if (topo.events().now() < horizon) {
    topo.run_until([] { return false; }, horizon - topo.events().now());
  }
  ledger.settle();
  // Live client connections still hold their counters.
  for (const proto::TcpConn* c : conns) {
    if (c == nullptr) continue;
    r.client_retransmits += c->retransmits();
    r.client_syn_retransmits += c->syn_retransmits();
  }
  finish_core(out, topo);
  return out;
}

/// The RPC loop: one service per flow, one call per scheduled packet.  It
/// shares the world, pricing and result code with the TCP loop; RPC has
/// no connection machinery, so it never churns or runs disrupted.
CoreRunResult run_rpc_core(const FleetSpec& spec, const BurstCostTable& costs,
                           const std::vector<ScheduledBurst>& schedule,
                           const OwnedFlows& owned, std::uint32_t core_id) {
  if (owned.count > 65'536 - kFleetRpcProcBase) {
    throw std::invalid_argument(
        "run_fleet_core: " + std::to_string(owned.count) +
        " RPC flows on one core exceed the 16-bit procedure space — use "
        "more cores");
  }
  // Local flow j calls procedure base + j.
  const auto proc_of = [](std::size_t j) {
    return static_cast<std::uint16_t>(kFleetRpcProcBase + j);
  };

  DirectTopology topo(spec, costs, owned.count);
  net::World& world = topo.world();
  for (std::size_t j = 0; j < owned.count; ++j) {
    world.server().mselect()->register_service(
        proc_of(j), [&world](xk::Message& req) {
          xk::Message reply(world.server().arena(), 0, 1);
          reply.data()[0] = static_cast<std::uint8_t>(req.length() & 0xFF);
          return reply;
        });
  }

  CoreRunResult out;
  out.result.spec = spec;
  out.samples.reserve(spec.packets / (core_id + 1) + 16);
  std::uint64_t done = 0;
  FrameLedger ledger(topo, out, done, /*timed=*/false);
  std::uint64_t sent = 0;
  for (std::size_t b = 0; b < schedule.size(); ++b) {
    const ScheduledBurst& sb = schedule[b];
    ledger.at_burst(b);
    const std::size_t k = owned.local[sb.flow];
    if (k == OwnedFlows::kForeign) continue;
    ++out.result.bursts;
    out.result.owned_packets += sb.len;
    ledger.begin_burst();
    for (std::uint64_t j = 0; j < sb.len; ++j) {
      xk::Message req(world.client().arena(), 128, 16);
      world.client().mselect()->call(proc_of(k), req,
                                     [&](xk::Message&) { ++done; });
      ++sent;
      if (!world.run_until([&] { return done >= sent; }, 60'000'000)) {
        fleet_fail(spec, "scheduled call did not complete", sent - 1);
      }
    }
    ledger.end_burst();
    ledger.settle();
  }
  finish_core(out, topo);
  return out;
}

void check_costs(const FleetSpec& spec, const BurstCostTable& costs,
                 net::StackKind priced) {
  if (costs.fast_us.empty() || costs.slow_us.size() != costs.fast_us.size()) {
    throw std::invalid_argument(
        "run_fleet: malformed cost table (needs >= 1 position and equal "
        "fast/slow sizes)");
  }
  if (costs.kind != priced) {
    throw std::invalid_argument(
        "run_fleet: cost table was measured for a different stack kind "
        "(TCP/IP, RPC or LB) than the row's topology prices");
  }
  if (costs.config_name != spec.config.name) {
    throw std::invalid_argument(
        "run_fleet: cost table measured for " + costs.config_name +
        " does not match row config " + spec.config.name);
  }
  if (costs.params_key != machine_params_key(spec.params)) {
    throw std::invalid_argument(
        "run_fleet: cost table was measured under different MachineParams "
        "than row '" +
        (spec.label.empty() ? std::string("unlabeled") : spec.label) +
        "' — measure_burst_costs() once per distinct params (cache-size "
        "sweeps must not reuse the defaults' costs)");
  }
}

}  // namespace

namespace fleet_detail {

CoreRunResult run_fleet_core(const FleetSpec& spec,
                             const BurstCostTable& costs,
                             const std::vector<ScheduledBurst>& schedule,
                             const std::vector<std::uint32_t>& flow_core,
                             std::uint32_t core_id) {
  if (flow_core.size() != spec.connections) {
    throw std::invalid_argument(
        "run_fleet_core: flow_core must map every connection");
  }
  const OwnedFlows owned = owned_flows(flow_core, core_id);
  if (owned.count == 0) {
    CoreRunResult idle;
    idle.result.spec = spec;
    idle.result.sample_digest = fnv1a_samples({});
    return idle;
  }
  if (spec.kind != net::StackKind::kTcpIp) {
    return run_rpc_core(spec, costs, schedule, owned, core_id);
  }
  DirectTopology topo(spec, costs, owned.count);
  return run_tcp_core(topo, spec, schedule, owned, core_id,
                      /*disruption=*/nullptr);
}

CoreRunResult run_tcp_flat(Topology& topo, const FleetSpec& spec,
                           const Disruption& disruption) {
  return run_tcp_core(
      topo, spec, build_schedule(spec),
      owned_flows(std::vector<std::uint32_t>(spec.connections, 0), 0),
      /*core_id=*/0, &disruption);
}

void validate_fleet_spec(const FleetSpec& spec, const BurstCostTable& costs,
                         net::StackKind priced) {
  if (!spec.config.path_inlining) {
    throw std::invalid_argument(
        "run_fleet: spec.config must have path_inlining enabled (the flow "
        "cache guards path-inlined inbound code)");
  }
  if (spec.connections == 0 || spec.packets == 0) {
    throw std::invalid_argument(
        "run_fleet: connections and packets must be > 0");
  }
  check_costs(spec, costs, priced);
}

}  // namespace fleet_detail

FleetResult run_fleet(const FleetSpec& spec, const BurstCostTable& costs) {
  fleet_detail::validate_fleet_spec(spec, costs, spec.kind);
  // The flat engine is the sharded engine with every flow on core 0.
  return fleet_detail::run_fleet_core(
             spec, costs, fleet_detail::build_schedule(spec),
             std::vector<std::uint32_t>(spec.connections, 0),
             /*core_id=*/0)
      .result;
}

std::string conservation_error(const FleetResult& r) {
  const auto n = [](std::uint64_t v) { return std::to_string(v); };
  std::string err;
  if (r.owned_packets != accounted(r)) {
    err = "owned_packets " + n(r.owned_packets) + " != scheduled_sampled " +
          n(r.scheduled_sampled) + " + dropped_in_churn " +
          n(r.dropped_in_churn) + " + lost_packets " + n(r.lost_packets);
  }
  if (r.packets_sampled != r.scheduled_sampled + r.handshake_sampled) {
    if (!err.empty()) err += "; ";
    err += "packets_sampled " + n(r.packets_sampled) +
           " != scheduled_sampled " + n(r.scheduled_sampled) +
           " + handshake_sampled " + n(r.handshake_sampled);
  }
  if (err.empty()) return err;
  return "packet conservation violated in row '" +
         (r.spec.label.empty() ? std::string("unlabeled") : r.spec.label) +
         "': " + err;
}

Json fleet_json(const BurstCostTable& costs,
                const std::vector<FleetResult>& rows) {
  Json section = emit_section("fleet", 2);
  section.set("costs", fleet_detail::costs_json(costs));
  Json out_rows = Json::array();
  for (const FleetResult& r : rows) {
    Json row = fleet_detail::spec_json(r.spec);
    row.set("owned_packets", r.owned_packets)
        .set("packets_sampled", r.packets_sampled)
        .set("scheduled_sampled", r.scheduled_sampled)
        .set("handshake_sampled", r.handshake_sampled)
        .set("dropped_in_churn", r.dropped_in_churn)
        .set("lost_packets", r.lost_packets)
        .set("bursts", r.bursts)
        .set("slow_packets", r.slow_packets)
        .set("churns", r.churns)
        .set("cache", fleet_detail::cache_json(r.cache))
        .set("latency_us", fleet_detail::percentiles_json(r.latency))
        .set("sim_us", r.sim_us)
        .set("sample_digest", r.sample_digest);
    out_rows.push_back(std::move(row));
  }
  section.set("rows", std::move(out_rows));
  return section;
}

}  // namespace l96::harness
