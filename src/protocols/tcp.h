// TCP: a BSD-derived Transmission Control Protocol.
//
// Implements connection establishment (three-way handshake), in-order
// reliable delivery with out-of-order buffering, cumulative ACKs with
// piggybacking, retransmission with exponential backoff, slow start and
// congestion avoidance, receiver window advertisement with the BSD
// "significant window update" rule, and orderly close.
//
// Paper-relevant knobs (StackConfig):
//  * tcb_word_fields      — byte/short fields in the TCB widened to words
//                           (Section 2.2.4; biggest instruction-count win).
//  * avoid_int_division   — window update threshold computed as ~33% by
//                           shift+add instead of 35% by mul/div, and the
//                           congestion-window update skipped via a
//                           "window fully open" test (Section 2.2.2).
//  * header_prediction    — BSD header prediction, which helps only
//                           uni-directional connections and slightly hurts
//                           the bi-directional request-response case.
//  * inline_map_cache_test— demux lookup discipline (Section 2.2.3).
//
// The TCP connection table is a single x-kernel map: the timer sweep that
// BSD does over a separate list of open connections uses the map's
// non-empty-bucket traversal instead (Section 2.2.1).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "protocols/ip.h"
#include "xkernel/map.h"
#include "xkernel/protocol.h"

namespace l96::proto {

inline constexpr std::size_t kTcpHeaderBytes = 20;

enum class TcpState : std::uint8_t {
  kClosed,
  kListen,
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kClosing,
  kLastAck,
  kTimeWait,
};

const char* to_string(TcpState s);

struct TcpParams {
  std::uint16_t mss = 1460;
  std::uint16_t max_window = 8192;   ///< receive-window limit
  std::uint64_t rto_us = 200'000;    ///< initial retransmission timeout
  std::uint64_t max_rto_us = 3'200'000;
  std::uint64_t msl_us = 1'000'000;  ///< TIME_WAIT = 2 MSL
  std::uint32_t initial_cwnd_segs = 1;
  /// Bound on SYN retransmissions before the active open gives up and
  /// surfaces TcpUpper::tcp_connect_failed (0 = retry forever, the
  /// pre-failure-domain behaviour).
  std::uint32_t max_syn_rexmts = 0;
  /// Keepalive: after `keepalive_idle_us` of inbound silence on an
  /// ESTABLISHED connection, probe the peer every `keepalive_intvl_us`;
  /// after `keepalive_probes` unanswered probes the half-open connection
  /// is reaped (tcp_closed).  0 idle disables keepalive entirely.
  std::uint64_t keepalive_idle_us = 0;
  std::uint64_t keepalive_intvl_us = 1'000'000;
  std::uint32_t keepalive_probes = 3;
  /// Hash-bucket count of the connection demux map (must be a power of
  /// two).  64 is the historical default; a sharded fleet core holding
  /// thousands of connections sizes this up so demux chains stay O(1)
  /// instead of devolving into 64 long lists.
  std::size_t conn_buckets = 64;
};

class Tcp;
class TcpConn;

/// Upcall interface for the layer above TCP.
class TcpUpper {
 public:
  virtual ~TcpUpper() = default;
  virtual void tcp_established(TcpConn&) {}
  virtual void tcp_receive(TcpConn&, xk::Message& payload) = 0;
  virtual void tcp_closed(TcpConn&) {}
  /// Active open gave up: SYN retries exhausted (TcpParams::max_syn_rexmts)
  /// without an answering SYN|ACK.  The connection is CLOSED; the caller
  /// owns destroying it.
  virtual void tcp_connect_failed(TcpConn&) {}
};

class TcpConn {
 public:
  /// Enqueue application data and try to transmit.
  void send(std::span<const std::uint8_t> data);
  /// Orderly close (FIN).
  void close();

  TcpState state() const noexcept { return state_; }
  std::uint32_t cwnd() const noexcept { return cwnd_; }
  std::uint32_t ssthresh() const noexcept { return ssthresh_; }
  std::uint32_t bytes_unacked() const noexcept { return snd_nxt_ - snd_una_; }
  std::uint16_t local_port() const noexcept { return lport_; }
  std::uint16_t remote_port() const noexcept { return rport_; }
  std::uint32_t remote_ip() const noexcept { return rip_; }
  std::uint64_t retransmits() const noexcept { return retransmits_; }
  std::uint64_t syn_retransmits() const noexcept { return syn_rexmts_; }
  std::uint64_t window_probes() const noexcept { return window_probes_; }
  std::uint64_t window_updates_sent() const noexcept {
    return window_updates_;
  }

 private:
  friend class Tcp;
  TcpConn(Tcp& tcp, std::uint32_t rip, std::uint16_t lport,
          std::uint16_t rport, TcpUpper* upper);
  ~TcpConn();

  Tcp& tcp_;
  TcpUpper* upper_;

  TcpState state_ = TcpState::kClosed;
  std::uint32_t rip_;
  std::uint16_t lport_;
  std::uint16_t rport_;

  // Send sequence space.
  std::uint32_t iss_ = 0;
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::uint32_t snd_wnd_ = 0;   // peer-advertised
  std::uint32_t cwnd_ = 0;
  std::uint32_t ssthresh_ = 0;
  bool fin_sent_ = false;
  std::deque<std::uint8_t> sndbuf_;  // bytes [snd_una_, ...)

  // Receive sequence space.
  std::uint32_t irs_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  std::uint32_t rcv_adv_ = 0;   // highest window edge advertised
  bool fin_rcvd_ = false;
  std::map<std::uint32_t, std::vector<std::uint8_t>> ooo_;

  bool ack_pending_ = false;
  std::uint64_t rexmt_event_ = 0;
  std::uint32_t backoff_ = 0;
  std::uint64_t persist_event_ = 0;
  std::uint32_t persist_backoff_ = 0;
  std::uint64_t keepalive_event_ = 0;
  std::uint32_t keepalive_probes_sent_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t syn_rexmts_ = 0;
  std::uint64_t window_probes_ = 0;
  std::uint64_t window_updates_ = 0;

  xk::SimAddr tcb_sim_ = 0;  ///< simulated address of the control block
};

class Tcp final : public xk::Protocol, public IpUpper {
 public:
  Tcp(xk::ProtoCtx& ctx, Ip& ip, TcpParams params = {});
  ~Tcp() override;

  /// Active open.
  TcpConn* connect(std::uint32_t dst_ip, std::uint16_t lport,
                   std::uint16_t rport, TcpUpper* upper);
  /// Passive open: accept connections to `port`; each new connection gets
  /// `upper` as its upcall sink.
  void listen(std::uint16_t port, TcpUpper* upper);

  /// Demux-map lifecycle hook: invoked when a connection is bound into
  /// (`bound == true`: active open or accept) or unbound from
  /// (`bound == false`: destroy/teardown) the connection map.  The flow
  /// cache guarding path-inlined inbound code keys on the connection
  /// 4-tuple, so an unbind means any cached classification for that flow
  /// is stale (net::Host wires this to FlowCache::invalidate).
  using ConnMapHook = std::function<void(const TcpConn&, bool bound)>;
  void set_conn_map_hook(ConnMapHook h) { conn_map_hook_ = std::move(h); }

  void ip_deliver(const IpInfo& info, xk::Message& m) override;
  void demux(xk::Message&) override {}  // inbound arrives via ip_deliver

  /// Number of open (non-CLOSED) connections — computed by traversing the
  /// demux map's non-empty buckets; there is no separate connection list.
  /// A CLOSED connection its owner has not yet destroyed is still bound
  /// but not counted.
  std::size_t open_connections();

  /// The connection bound to the 4-tuple (remote ip, local port, remote
  /// port), whatever its state, or nullptr.  Listeners are not in the
  /// connection map, so a listening port alone never matches.  A host-side
  /// query (xk::Map::find): it does not touch the demux map's statistics
  /// or one-entry cache.
  TcpConn* find(std::uint32_t rip, std::uint16_t lport,
                std::uint16_t rport) const;

  /// Destroy a connection object (tests / teardown).
  void destroy(TcpConn* conn);

  /// Snapshot of every live connection object, listeners included
  /// (teardown sweeps).
  std::vector<TcpConn*> connections();

  /// Test/diagnostic hook: clamp the advertised receive window (simulates a
  /// slow application not draining its socket buffer).  Pass ~0u to clear.
  void set_receive_window_override(std::uint32_t w) {
    rcv_wnd_override_ = w;
  }

  /// Survival knobs (keepalive / bounded SYN retry) applied after
  /// construction; net::Host re-applies them across a crash/reboot cycle.
  void set_keepalive(std::uint64_t idle_us, std::uint64_t intvl_us,
                     std::uint32_t probes) {
    params_.keepalive_idle_us = idle_us;
    params_.keepalive_intvl_us = intvl_us;
    params_.keepalive_probes = probes;
  }
  void set_max_syn_rexmts(std::uint32_t n) { params_.max_syn_rexmts = n; }

  const TcpParams& params() const noexcept { return params_; }
  Ip& ip() noexcept { return ip_; }
  std::uint64_t segments_sent() const noexcept { return segs_out_; }
  std::uint64_t segments_received() const noexcept { return segs_in_; }
  std::uint64_t bad_checksum_drops() const noexcept { return bad_cksum_; }
  std::uint64_t rst_sent() const noexcept { return rst_out_; }
  std::uint64_t connect_failures() const noexcept { return connect_failures_; }
  std::uint64_t keepalive_probes_sent() const noexcept {
    return keepalive_probes_total_;
  }
  std::uint64_t keepalive_reaps() const noexcept { return keepalive_reaps_; }
  const xk::Map<TcpConn*>& connection_map() const noexcept { return conns_; }

 private:
  friend class TcpConn;

  static xk::MapKey conn_key(std::uint32_t rip, std::uint16_t lport,
                             std::uint16_t rport);
  static xk::MapKey listen_key(std::uint16_t port);

  // --- input path ----------------------------------------------------------
  struct Segment {
    std::uint32_t seq = 0;
    std::uint32_t ack = 0;
    std::uint16_t wnd = 0;
    std::uint8_t flags = 0;
    std::uint16_t payload_len = 0;
  };
  void input(TcpConn& c, const Segment& seg, xk::Message& payload);
  void input_slow_state(TcpConn& c, const Segment& seg, xk::Message& payload);
  void process_ack(TcpConn& c, const Segment& seg);
  void process_data(TcpConn& c, const Segment& seg, xk::Message& payload);
  void process_fin(TcpConn& c, const Segment& seg);

  // --- output path ----------------------------------------------------------
  /// Transmit whatever the connection state allows (data, SYN/FIN, window
  /// update, or a pure ACK when `force_ack`).
  void output(TcpConn& c, bool force_ack);
  void send_segment(TcpConn& c, std::uint32_t seq, std::uint8_t flags,
                    std::span<const std::uint8_t> payload);
  void send_rst(const IpInfo& info, const Segment& seg, std::uint16_t sport,
                std::uint16_t dport);
  /// The receiver-window advertisement + "significant update" rule.
  std::uint32_t receive_window(TcpConn& c) const;
  bool window_update_due(TcpConn& c);

  // --- timers -----------------------------------------------------------
  void arm_rexmt(TcpConn& c);
  void cancel_rexmt(TcpConn& c);
  void rexmt_timeout(TcpConn* c);
  void arm_persist(TcpConn& c);
  void cancel_persist(TcpConn& c);
  void persist_timeout(TcpConn* c);
  void arm_keepalive(TcpConn& c);
  void cancel_keepalive(TcpConn& c);
  void keepalive_timeout(TcpConn* c);

  void tcb_load(const TcpConn& c, unsigned field);
  void tcb_store(const TcpConn& c, unsigned field);
  std::uint32_t tcb_bytes() const;

  Ip& ip_;
  TcpParams params_;
  xk::Map<TcpConn*> conns_;
  xk::Map<TcpConn*> listeners_;
  ConnMapHook conn_map_hook_;
  std::uint32_t iss_gen_ = 1000;
  std::uint32_t rcv_wnd_override_ = ~0u;

  std::uint64_t segs_out_ = 0;
  std::uint64_t segs_in_ = 0;
  std::uint64_t bad_cksum_ = 0;
  std::uint64_t rst_out_ = 0;
  std::uint64_t connect_failures_ = 0;
  std::uint64_t keepalive_probes_total_ = 0;
  std::uint64_t keepalive_reaps_ = 0;

  code::FnId fn_demux_;
  code::FnId fn_input_;
  code::FnId fn_output_;
  code::FnId fn_usrsend_;
  code::FnId fn_timer_;
  code::FnId fn_cksum_;
  code::FnId fn_divq_;
  code::FnId fn_map_resolve_;
  code::FnId fn_msg_push_;
  code::FnId fn_msg_pop_;
  code::FnId fn_evt_sched_;
  code::FnId fn_evt_cancel_;
};

}  // namespace l96::proto
