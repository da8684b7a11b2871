#include "net/lb.h"

#include <algorithm>
#include <stdexcept>

#include "protocols/stack_code.h"
#include "protocols/trace_util.h"
#include "xkernel/message.h"

namespace l96::net {

namespace {

constexpr std::uint32_t kVip = 0x0A000064;  // 10.0.0.100
constexpr HostAddress kLbClientAddr{
    .ip = 0x0A000001,  // 10.0.0.1
    .mac = {0x08, 0x00, 0x2B, 0x00, 0x00, 0x01},
    .boot_id = 0x1001,
};
constexpr proto::MacAddr kLbMac{0x08, 0x00, 0x2B, 0x10, 0x00, 0xFE};

proto::MacAddr backend_mac(std::size_t i) {
  return {0x08, 0x00, 0x2B, 0x20, 0x00, static_cast<std::uint8_t>(i + 1)};
}

// The LB classifies the same inbound TCP/IP shape as an endpoint host
// (host.cc): ethertype IPv4, version/IHL 0x45, not fragmented, TCP.  The
// path id is irrelevant to steering — the conn-track resolver rebinds
// matched flows to a backend index — it only marks "classifier matched".
code::PacketClassifier make_lb_classifier() {
  code::PacketClassifier c;
  c.add_path("lb_tcpip", 1,
             {{.offset = 12, .size = 2, .mask = 0xFFFF, .value = 0x0800},
              {.offset = 14, .size = 1, .mask = 0xFF, .value = 0x45},
              {.offset = 20, .size = 2, .mask = 0x3FFF, .value = 0x0000},
              {.offset = 23, .size = 1, .mask = 0xFF, .value = 0x06}});
  return c;
}

}  // namespace

const char* to_string(LbRebuildCause c) {
  switch (c) {
    case LbRebuildCause::kHealthDown: return "health-down";
    case LbRebuildCause::kHealthUp: return "health-up";
    case LbRebuildCause::kDrain: return "drain";
    case LbRebuildCause::kUndrain: return "undrain";
  }
  return "?";
}

class LbHost::Upper final : public xk::Protocol {
 public:
  Upper(xk::ProtoCtx& ctx, LbHost& lb) : Protocol("lb", ctx), lb_(lb) {}
  void demux(xk::Message& m) override { lb_.forward(m); }

 private:
  LbHost& lb_;
};

LbHost::LbHost(std::string name, const code::StackConfig& cfg,
               xk::EventManager& events, std::uint32_t event_owner,
               Wire& client_wire, int client_tx_port,
               std::vector<LbBackendLink> backends, LbOptions opts)
    : name_(std::move(name)),
      cfg_(cfg),
      port_(events, event_owner),
      client_wire_(client_wire),
      client_tx_port_(client_tx_port),
      classifier_(make_lb_classifier()),
      track_(proto::tcpip_flow_key_spec(), opts.track_scheme,
             opts.track_capacity, opts.track_costs),
      maglev_(backends.size(), opts.maglev_table_size, opts.salt),
      health_(opts.health) {
  proto::register_common_code(registry_, cfg_);
  proto::register_lb_code(registry_, cfg_);
  fn_classify_ = registry_.require("lb_classify");
  fn_hash_ = registry_.require("lb_hash");
  fn_maglev_ = registry_.require("lb_maglev");
  fn_track_ = registry_.require("lb_track");
  fn_rewrite_ = registry_.require("lb_rewrite");
  fn_forward_ = registry_.require("lb_forward");

  ctx_ = std::make_unique<xk::ProtoCtx>(
      xk::ProtoCtx{arena_, port_, recorder_, registry_, cfg_});

  upper_ = std::make_unique<Upper>(*ctx_, *this);
  client_lance_ = std::make_unique<proto::Lance>(
      *ctx_, [this](std::span<const std::uint8_t> frame) {
        client_wire_.transmit(client_tx_port_, frame);
      });
  client_lance_->attach(upper_.get());

  backends_.reserve(backends.size());
  for (const LbBackendLink& link : backends) {
    if (link.wire == nullptr) {
      throw std::invalid_argument("LbHost: backend link has no wire");
    }
    Backend be;
    be.wire = link.wire;
    be.tx_port = link.tx_port;
    be.mac = link.mac;
    be.lance = std::make_unique<proto::Lance>(
        *ctx_,
        [w = link.wire, p = link.tx_port](std::span<const std::uint8_t> frame) {
          w->transmit(p, frame);
        });
    backends_.push_back(std::move(be));
  }
}

LbHost::~LbHost() = default;

std::vector<bool> LbHost::alive_mask() const {
  std::vector<bool> alive(backends_.size());
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    alive[i] = backends_[i].healthy && !backends_[i].drained;
  }
  return alive;
}

void LbHost::rebuild_pool(LbRebuildCause cause, std::uint16_t backend,
                          bool invalidate) {
  const std::size_t remapped = maglev_.rebuild(alive_mask());
  const std::size_t invalidated =
      invalidate ? track_.invalidate_path(static_cast<int>(backend)) : 0;
  rebuilds_.push_back({port_.now(), cause, backend, remapped, invalidated,
                       maglev_.pool_size()});
}

void LbHost::drain(std::size_t backend) {
  Backend& be = backends_.at(backend);
  if (be.drained) return;
  be.drained = true;
  // Administrative removal keeps pinned flows bound: conn-track entries
  // are NOT invalidated, so established connections ride out the drain.
  rebuild_pool(LbRebuildCause::kDrain, static_cast<std::uint16_t>(backend),
               /*invalidate=*/false);
}

void LbHost::undrain(std::size_t backend) {
  Backend& be = backends_.at(backend);
  if (!be.drained) return;
  be.drained = false;
  rebuild_pool(LbRebuildCause::kUndrain, static_cast<std::uint16_t>(backend),
               /*invalidate=*/false);
}

bool LbHost::drained(std::size_t backend) const {
  return backends_.at(backend).drained;
}

bool LbHost::healthy(std::size_t backend) const {
  return backends_.at(backend).healthy;
}

void LbHost::start_health_checks() {
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    // Deterministic per-backend phase so N probes never collapse onto one
    // tick (and the whole schedule is a pure function of the seed).
    const std::uint64_t phase =
        MaglevTable::mix64(health_.seed ^ (0x9E3779B97F4A7C15ull * (i + 1))) %
        health_.interval_us;
    port_.schedule_in(phase + 1, [this, i] { probe(i); });
  }
}

void LbHost::probe(std::size_t i) {
  ++health_probes_;
  Backend& be = backends_[i];
  const bool ok = probe_fn_ ? probe_fn_(i) : true;
  if (ok) {
    be.fail_streak = 0;
    ++be.ok_streak;
    if (!be.healthy && be.ok_streak >= health_.recover_threshold) {
      be.healthy = true;
      // Restoration moves table shares back but leaves conn-track entries
      // alone: flows pinned elsewhere while the backend was down stay put
      // (Maglev's minimal disruption covers the rest).
      rebuild_pool(LbRebuildCause::kHealthUp, static_cast<std::uint16_t>(i),
                   /*invalidate=*/false);
    }
  } else {
    be.ok_streak = 0;
    ++be.fail_streak;
    if (be.healthy && be.fail_streak >= health_.fail_threshold) {
      be.healthy = false;
      // A detected failure strands every flow pinned to the dead backend:
      // each takes exactly one stale slow-path rebind on its next packet.
      rebuild_pool(LbRebuildCause::kHealthDown, static_cast<std::uint16_t>(i),
                   /*invalidate=*/true);
    }
  }
  port_.schedule_in(health_.interval_us, [this, i] { probe(i); });
}

void LbHost::arm_capture(code::PathTrace* sink) {
  capture_sink_ = sink;
  capture_done_ = false;
  tx_split_ = 0;
}

void LbHost::deliver_from_client(std::span<const std::uint8_t> frame) {
  const bool capturing = capture_sink_ != nullptr;
  if (capturing) {
    capture_sink_->clear();
    recorder_.enable(capture_sink_);
  }

  // Steering state is resolved outside the recorded activation (same
  // contract as Host::deliver: the cache's cost model prices the lookup,
  // the trace prices the code that acts on its outcome).
  pending_empty_pool_ = false;
  pending_lr_ = code::FlowLookupResult{};
  bool bad_frame = false;
  if (!track_.key_spec().key_of(frame).has_value()) {
    // Too short to carry the flow tuple: unpinnable, dropped on the
    // classifier's error block.
    bad_frame = true;
  } else {
    pending_lr_ = track_.lookup(classifier_, frame, [this](code::FlowKey k) {
      const int b = maglev_.lookup(MaglevTable::mix64(k));
      if (b < 0) pending_empty_pool_ = true;
      return b;
    });
    bad_frame = !pending_lr_.path_id.has_value() && !pending_empty_pool_;
  }
  // Section 3.3 guard semantics: a packet with no usable prediction (no
  // binding, or a binding invalidated by a pool change) cannot run the
  // inlined composite.  A plain cold miss that resolves is NOT slow — the
  // standalone Maglev functions run, but the forwarding path itself is
  // still the predicted one.
  pending_slow_ = bad_frame || pending_empty_pool_ || pending_lr_.stale;
  pending_bad_frame_ = bad_frame;

  const bool mark = pending_slow_ && cfg_.path_inlining;
  if (mark) recorder_.marker(code::Marker::kSlowPathBegin);
  client_lance_->rx_frame(frame);
  if (mark) recorder_.marker(code::Marker::kSlowPathEnd);

  if (capturing) {
    recorder_.disable();
    tx_split_ = capture_sink_->events.size();
    const code::FnId lance_send = registry_.require("lance_send");
    for (std::size_t i = 0; i < capture_sink_->events.size(); ++i) {
      const code::Event& ev = capture_sink_->events[i];
      if (ev.kind == code::EventKind::kBlock && ev.fn == lance_send &&
          ev.block == proto::blk::kLanceSendKick) {
        tx_split_ = i + 1;
      }
    }
    capture_sink_ = nullptr;
    capture_done_ = true;
  }
}

void LbHost::forward(xk::Message& m) {
  code::Recorder& rec = recorder_;

  {
    code::TracedCall t(rec, fn_classify_);
    rec.block(fn_classify_, proto::blk::kLbClsParse);
    proto::touch_buffer(rec, m.sim_addr(),
                        std::min<std::size_t>(m.length(), 38),
                        /*write=*/false);
    if (pending_bad_frame_) {
      rec.block(fn_classify_, proto::blk::kLbClsBadFrame);
      ++drops_bad_frame_;
      if (forward_hook_) forward_hook_(pending_lr_, pending_slow_, -1);
      return;
    }
    rec.block(fn_classify_, proto::blk::kLbClsFields);
  }

  {
    code::TracedCall t(rec, fn_track_);
    rec.block(fn_track_, proto::blk::kLbTrackProbe);
    if (pending_lr_.stale) rec.block(fn_track_, proto::blk::kLbTrackStale);
    if (!pending_lr_.cache_hit || pending_lr_.stale) {
      // Miss or stale rebind: the standalone hash + table-walk functions
      // run (never part of the inlined forwarding composite).
      {
        code::TracedCall th(rec, fn_hash_);
        rec.block(fn_hash_, proto::blk::kLbHashMain);
      }
      {
        code::TracedCall tm(rec, fn_maglev_);
        rec.block(fn_maglev_, proto::blk::kLbMaglevProbe);
        rec.block(fn_maglev_, pending_empty_pool_
                                  ? proto::blk::kLbMaglevEmptyPool
                                  : proto::blk::kLbMaglevEntry);
      }
      if (pending_empty_pool_) {
        ++drops_no_backend_;
        if (forward_hook_) forward_hook_(pending_lr_, pending_slow_, -1);
        return;
      }
      rec.block(fn_track_, proto::blk::kLbTrackBind);
    }
  }

  const int backend = *pending_lr_.path_id;
  Backend& be = backends_[static_cast<std::size_t>(backend)];

  {
    // DSR rewrite: only the Ethernet destination MAC changes; IP and TCP
    // bytes (and their checksums) pass through untouched.
    code::TracedCall t(rec, fn_rewrite_);
    rec.block(fn_rewrite_, proto::blk::kLbRewriteMac);
    std::copy(be.mac.begin(), be.mac.end(), m.data());
    proto::touch_buffer(rec, m.sim_addr(), be.mac.size(), /*write=*/true);
  }

  {
    code::TracedCall t(rec, fn_forward_);
    rec.block(fn_forward_, proto::blk::kLbForwardTx);
    if (!be.wire->is_link_up()) {
      // Forwarding onto a dark leg: the wire's blackout accounting
      // swallows the frame; the LB only observes (and prices) the error
      // block — health checks, not per-packet ACKs, pull the backend out.
      rec.block(fn_forward_, proto::blk::kLbForwardLinkDown);
      ++dark_forwards_;
    }
    be.lance->send(m);
  }

  ++forwards_;
  if (pending_slow_) ++slow_forwards_;
  if (forward_hook_) forward_hook_(pending_lr_, pending_slow_, backend);
}

void LbHost::deliver_from_backend(std::size_t,
                                  std::span<const std::uint8_t> frame) {
  // DSR return leg: the backend already addressed the client's MAC, so
  // the LB is pure switching fabric here — cut through, untraced and
  // unpriced (a real DSR reply never transits the LB at all).
  ++returns_forwarded_;
  client_wire_.transmit(client_tx_port_, frame);
}

// --- LbWorld -----------------------------------------------------------------

LbWorld::LbWorld(const code::StackConfig& client_cfg,
                 const code::StackConfig& lb_cfg,
                 const code::StackConfig& backend_cfg, LbWorldOptions options)
    : client_wire_(events_, options.wire) {
  if (options.backends == 0) {
    throw std::invalid_argument("LbWorld: need at least one backend");
  }

  client_ = std::make_unique<Host>(
      "client", StackKind::kTcpIp, client_cfg, kLbClientAddr,
      HostAddress{.ip = kVip, .mac = kLbMac, .boot_id = 1},
      /*is_client=*/true, events_, client_wire_, /*wire_port=*/0,
      options.tcp_conn_buckets, kClientOwner);

  std::vector<LbBackendLink> links;
  links.reserve(options.backends);
  for (std::size_t i = 0; i < options.backends; ++i) {
    backend_wires_.push_back(std::make_unique<Wire>(events_, options.wire));
    // Every backend answers on the VIP (DSR addressing) with its own MAC;
    // its peer is the client itself, so replies carry the client's MAC.
    backends_.push_back(std::make_unique<Host>(
        "backend" + std::to_string(i), StackKind::kTcpIp, backend_cfg,
        HostAddress{.ip = kVip,
                    .mac = backend_mac(i),
                    .boot_id = 0x2001 + static_cast<std::uint32_t>(i)},
        kLbClientAddr, /*is_client=*/false, events_, *backend_wires_[i],
        /*wire_port=*/1, options.tcp_conn_buckets,
        kFirstBackendOwner + static_cast<std::uint32_t>(i)));
    links.push_back(LbBackendLink{.wire = backend_wires_[i].get(),
                                  .tx_port = 0,
                                  .mac = backend_mac(i)});
  }

  lb_ = std::make_unique<LbHost>("lb", lb_cfg, events_, kLbOwner,
                                 client_wire_, /*client_tx_port=*/1,
                                 std::move(links), options.lb);
  // Probe truth: the leg is lit and the backend is up.  (The probe itself
  // is control-plane traffic, modeled off-wire.)
  lb_->set_health_probe([this](std::size_t i) {
    return backend_wires_[i]->is_link_up() && !backends_[i]->crashed();
  });

  client_wire_.connect(0, [this](std::span<const std::uint8_t> f) {
    client_->deliver(f);
  });
  client_wire_.connect(1, [this](std::span<const std::uint8_t> f) {
    lb_->deliver_from_client(f);
  });
  for (std::size_t i = 0; i < options.backends; ++i) {
    backend_wires_[i]->connect(0, [this, i](std::span<const std::uint8_t> f) {
      lb_->deliver_from_backend(i, f);
    });
    backend_wires_[i]->connect(1, [this, i](std::span<const std::uint8_t> f) {
      backends_[i]->deliver(f);
    });
  }
}

void LbWorld::start(std::uint64_t target_roundtrips) {
  for (auto& b : backends_) b->tcptest()->serve(kTcpServerPort);
  client_->tcptest()->start(kVip, World::kTcpClientPort, kTcpServerPort,
                            target_roundtrips);
  lb_->start_health_checks();
}

std::uint64_t LbWorld::client_roundtrips() const {
  return client_->tcptest()->roundtrips();
}

bool LbWorld::run_until_roundtrips(std::uint64_t n, std::uint64_t max_us) {
  return run_until([this, n] { return client_roundtrips() >= n; },
                   max_us == 0 ? n * 100'000 + 10'000'000 : max_us);
}

std::uint32_t LbWorld::vip() const noexcept { return kVip; }

const HostAddress& LbWorld::client_address() const {
  return client_->address();
}

}  // namespace l96::net
