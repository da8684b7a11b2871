#include "net/host.h"

#include <stdexcept>

#include "protocols/rulegen.h"
#include "protocols/stack_code.h"

namespace l96::net {

namespace {

proto::RuleSetKind rule_set_kind(StackKind kind) {
  return kind == StackKind::kTcpIp ? proto::RuleSetKind::kTcpIp
                                   : proto::RuleSetKind::kRpc;
}

// Classifier rules for the inbound fast path: the canonical per-stack rule
// list lives in protocols/rulegen.h (shared with the scaled-rule-set
// generator so the real path can never drift between the two).
code::PacketClassifier make_classifier(StackKind kind) {
  return proto::build_scaled_classifier(rule_set_kind(kind), 0, 0);
}

}  // namespace

const char* to_string(StackKind k) {
  switch (k) {
    case StackKind::kTcpIp: return "tcpip";
    case StackKind::kRpc: return "rpc";
    case StackKind::kLb: return "lb";
  }
  return "?";
}

Host::Host(std::string name, StackKind kind, const code::StackConfig& cfg,
           HostAddress self, HostAddress peer, bool is_client,
           xk::EventManager& events, Wire& wire, int wire_port,
           std::size_t tcp_conn_buckets, std::uint32_t event_owner)
    : name_(std::move(name)),
      kind_(kind),
      cfg_(cfg),
      self_(self),
      peer_(peer),
      is_client_(is_client),
      // Failure domain: wire port 0 -> owner 1, port 1 -> owner 2 (owner 0
      // is infrastructure and survives every crash); multi-host worlds
      // override via event_owner.
      port_(events, event_owner != 0
                        ? event_owner
                        : static_cast<std::uint32_t>(wire_port) + 1),
      wire_(wire),
      wire_port_(wire_port),
      tcp_conn_buckets_(tcp_conn_buckets),
      classifier_(make_classifier(kind)) {
  if (kind_ == StackKind::kLb) {
    throw std::invalid_argument(
        "Host: kLb is the forwarding tier; build a net::LbHost instead");
  }
  proto::register_common_code(registry_, cfg_);
  if (kind_ == StackKind::kTcpIp) {
    proto::register_tcpip_code(registry_, cfg_);
  } else {
    proto::register_rpc_code(registry_, cfg_);
  }

  ctx_ = std::make_unique<xk::ProtoCtx>(
      xk::ProtoCtx{arena_, port_, recorder_, registry_, cfg_});

  build_stack();
}

void Host::build_stack() {
  lance_ = std::make_unique<proto::Lance>(
      *ctx_, [this](std::span<const std::uint8_t> frame) {
        wire_.transmit(wire_port_, frame);
      });
  eth_ = std::make_unique<proto::Eth>(*ctx_, *lance_, self_.mac);

  if (kind_ == StackKind::kTcpIp) {
    vnet_ = std::make_unique<proto::VNet>(*ctx_);
    vnet_->add_route(peer_.ip, 24, eth_.get(), peer_.mac);
    ip_ = std::make_unique<proto::Ip>(*ctx_, *vnet_, self_.ip);
    eth_->attach(proto::kEtherTypeIp, ip_.get());
    proto::TcpParams tcp_params;
    tcp_params.conn_buckets = tcp_conn_buckets_;
    tcp_ = std::make_unique<proto::Tcp>(*ctx_, *ip_, tcp_params);
    if (tcp_ka_idle_us_ != 0) {
      tcp_->set_keepalive(tcp_ka_idle_us_, tcp_ka_intvl_us_, tcp_ka_probes_);
    }
    if (tcp_max_syn_rexmts_ != 0) {
      tcp_->set_max_syn_rexmts(tcp_max_syn_rexmts_);
    }
    tcptest_ = std::make_unique<proto::TcpTest>(*ctx_, *tcp_, is_client_);
    wire_flow_cache_hook();
  } else {
    blast_ = std::make_unique<proto::Blast>(*ctx_, *eth_, peer_.mac);
    bid_ = std::make_unique<proto::Bid>(*ctx_, *blast_, self_.boot_id);
    chan_ = std::make_unique<proto::Chan>(*ctx_, *bid_);
    bid_->on_peer_reboot([this] {
      chan_->flush();
      blast_->flush();
    });
    vchan_ = std::make_unique<proto::VChan>(*ctx_, *chan_);
    chan_->set_server(vchan_.get());
    mselect_ = std::make_unique<proto::MSelect>(*ctx_, *vchan_);
    xrpctest_ = std::make_unique<proto::XRpcTest>(*ctx_, *mselect_, is_client_);
  }
}

void Host::teardown_stack() {
  // Top-down, reverse of construction: uppers unhook from lowers first.
  if (kind_ == StackKind::kTcpIp) {
    if (tcp_ != nullptr) tcp_->set_conn_map_hook(nullptr);
    tcptest_.reset();
    tcp_.reset();
    ip_.reset();
    vnet_.reset();
  } else {
    xrpctest_.reset();
    mselect_.reset();
    vchan_.reset();
    chan_.reset();
    bid_.reset();
    blast_.reset();
  }
  eth_.reset();
  lance_.reset();
}

void Host::crash() {
  if (crashed_) return;
  crashed_ = true;
  // A capture in progress dies with the host.
  if (capture_sink_ != nullptr) {
    recorder_.disable();
    capture_sink_ = nullptr;
  }
  teardown_stack();
  // Kill the stack's timers without firing them; wire deliveries and the
  // chaos script (owner 0) keep going.
  purged_events_ += port_.manager().purge_owner(port_.owner());
  // Every cached classification refers to the dead incarnation's bindings:
  // flush entries (hit/miss/stale counters survive for reporting).
  if (flow_cache_ != nullptr) flow_cache_->clear();
}

void Host::reboot() {
  if (!crashed_) throw std::logic_error("Host::reboot: host is not crashed");
  ++incarnation_;
  // A fresh boot_id per incarnation: BID detects the reboot on the peer
  // (RPC); TCP converges via RST against the stale peer's segments.
  ++self_.boot_id;
  crashed_ = false;
  build_stack();
  if (reboot_hook_) reboot_hook_();
}

void Host::set_tcp_keepalive(std::uint64_t idle_us, std::uint64_t intvl_us,
                             std::uint32_t probes) {
  tcp_ka_idle_us_ = idle_us;
  tcp_ka_intvl_us_ = intvl_us;
  tcp_ka_probes_ = probes;
  if (tcp_ != nullptr) tcp_->set_keepalive(idle_us, intvl_us, probes);
}

void Host::set_tcp_max_syn_rexmts(std::uint32_t n) {
  tcp_max_syn_rexmts_ = n;
  if (tcp_ != nullptr) tcp_->set_max_syn_rexmts(n);
}

void Host::arm_capture(code::PathTrace* sink) {
  capture_sink_ = sink;
  capture_done_ = false;
  tx_split_ = 0;
}

Host::~Host() {
  if (tcp_ != nullptr) tcp_->set_conn_map_hook(nullptr);
  deliver_hook_ = nullptr;
}

void Host::enable_flow_cache(code::FlowCacheScheme scheme,
                             std::size_t capacity,
                             code::FlowCacheCosts costs) {
  flow_cache_ = std::make_unique<code::FlowCache>(
      kind_ == StackKind::kTcpIp ? proto::tcpip_flow_key_spec()
                                 : proto::rpc_flow_key_spec(),
      scheme, capacity, costs);
  if (scaled_classifier_) flow_cache_->set_probe_log(&probe_log_);
  wire_flow_cache_hook();
}

void Host::install_scaled_classifier(std::size_t decoy_rules,
                                     std::uint64_t seed) {
  classifier_ =
      proto::build_scaled_classifier(rule_set_kind(kind_), decoy_rules, seed);
  if (!scaled_classifier_) {
    proto::register_classifier_code(registry_, cfg_);
    scaled_classifier_ = true;
  }
  if (flow_cache_ != nullptr) flow_cache_->set_probe_log(&probe_log_);
}

void Host::wire_flow_cache_hook() {
  if (flow_cache_ == nullptr || kind_ != StackKind::kTcpIp ||
      tcp_ == nullptr) {
    return;
  }
  // Connection churn: when a connection leaves the demux map its flow
  // key may be rebound later; any cached classification for it is then
  // stale and must fail the inlined composite's guard.  Re-wired to the
  // fresh Tcp after a reboot.
  tcp_->set_conn_map_hook([this](const proto::TcpConn& c, bool bound) {
    if (bound) return;
    const std::uint32_t vals[] = {c.remote_ip(), c.remote_port(),
                                  c.local_port()};
    flow_cache_->invalidate(flow_cache_->key_spec().key_of_values(vals));
  });
}

void Host::deliver(std::span<const std::uint8_t> frame) {
  if (crashed_) {
    // The NIC is dead: frames that were already in flight when the host
    // went down arrive at nobody.
    ++frames_to_dead_;
    return;
  }
  const bool capturing = capture_sink_ != nullptr;
  if (capturing) {
    capture_sink_->clear();
    recorder_.enable(capture_sink_);
  }
  // Section 3.3: with path-inlining the optimized inbound code handles only
  // packets that really follow the assumed path; everything else must take
  // the standalone slow-path code.  A stale flow-cache hit (connection
  // churn) also fails the composite's guard: the cached prediction refers
  // to a binding that no longer exists.
  bool slow = false;
  if (cfg_.path_inlining) {
    code::FlowLookupResult lr;
    if (flow_cache_ != nullptr) {
      lr = flow_cache_->lookup(classifier_, frame);
      if (capturing && scaled_classifier_) {
        // The lookup's own code: cache probe + (on a miss) the scan the
        // probe log describes.  Emitted before the protocol activation,
        // exactly where the classifier runs.
        std::optional<std::uint64_t> entry_addr;
        if (const auto key = flow_cache_->key_spec().key_of(frame)) {
          entry_addr = proto::flow_cache_entry_addr(flow_cache_->slot_of(*key));
        }
        proto::trace_classification(recorder_, registry_, lr, probe_log_,
                                    entry_addr);
      }
    } else if (capturing && scaled_classifier_) {
      probe_log_.clear();
      const code::ClassifyScan scan =
          classifier_.classify_scan(frame, &probe_log_);
      lr.path_id = scan.path_id;
      proto::trace_classifier_scan(recorder_, registry_, scan, probe_log_);
    } else {
      lr.path_id = classifier_.classify(frame);
    }
    if (lr.path_id.has_value() && !lr.stale) {
      ++classifier_hits_;
    } else {
      ++classifier_misses_;
      slow = true;
      recorder_.marker(code::Marker::kSlowPathBegin);
    }
    if (flow_cache_ != nullptr && deliver_hook_) deliver_hook_(lr, slow);
  }
  lance_->rx_frame(frame);
  if (slow) recorder_.marker(code::Marker::kSlowPathEnd);
  if (capturing) {
    recorder_.disable();
    // Locate the last transmission within the activation: the events after
    // the outbound lance_send's "kick" block overlap the frame's flight.
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

}  // namespace l96::net
