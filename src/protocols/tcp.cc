#include "protocols/tcp.h"

#include <algorithm>
#include <cassert>

#include "protocols/stack_code.h"
#include "protocols/trace_util.h"
#include "protocols/wire_format.h"

namespace l96::proto {

namespace {

constexpr std::uint8_t kFin = 0x01;
constexpr std::uint8_t kSyn = 0x02;
constexpr std::uint8_t kRst = 0x04;
constexpr std::uint8_t kPsh = 0x08;
constexpr std::uint8_t kAck = 0x10;

// Sequence-space comparison (RFC 793 modular arithmetic).
bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
bool seq_leq(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}

std::uint32_t pseudo_header_sum(std::uint32_t src, std::uint32_t dst,
                                std::uint16_t tcp_len) {
  std::uint32_t sum = 0;
  sum += src >> 16;
  sum += src & 0xFFFF;
  sum += dst >> 16;
  sum += dst & 0xFFFF;
  sum += kIpProtoTcp;
  sum += tcp_len;
  return sum;
}

}  // namespace

const char* to_string(TcpState s) {
  switch (s) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kListen: return "LISTEN";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynRcvd: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// TcpConn
// ---------------------------------------------------------------------------

TcpConn::TcpConn(Tcp& tcp, std::uint32_t rip, std::uint16_t lport,
                 std::uint16_t rport, TcpUpper* upper)
    : tcp_(tcp), upper_(upper), rip_(rip), lport_(lport), rport_(rport) {
  tcb_sim_ = tcp_.ctx_.arena.alloc(tcp_.tcb_bytes(), 64);
}

TcpConn::~TcpConn() {
  tcp_.ctx_.arena.free(tcb_sim_, tcp_.tcb_bytes());
}

void TcpConn::send(std::span<const std::uint8_t> data) {
  auto& rec = tcp_.ctx_.rec;
  code::TracedCall tc(rec, tcp_.fn_usrsend_);
  rec.block(tcp_.fn_usrsend_, blk::kUsrSendMain);
  sndbuf_.insert(sndbuf_.end(), data.begin(), data.end());
  tcp_.tcb_store(*this, 4);
  tcp_.output(*this, /*force_ack=*/false);
}

void TcpConn::close() {
  switch (state_) {
    case TcpState::kEstablished:
      state_ = TcpState::kFinWait1;
      break;
    case TcpState::kCloseWait:
      state_ = TcpState::kLastAck;
      break;
    case TcpState::kSynSent:
    case TcpState::kListen:
      state_ = TcpState::kClosed;
      return;
    default:
      return;
  }
  tcp_.output(*this, /*force_ack=*/false);  // emits the FIN when data drains
}

// ---------------------------------------------------------------------------
// Tcp: construction / demux
// ---------------------------------------------------------------------------

Tcp::Tcp(xk::ProtoCtx& ctx, Ip& ip, TcpParams params)
    : Protocol("tcp", ctx),
      ip_(ip),
      params_(params),
      conns_(ctx.arena, params_.conn_buckets),
      listeners_(ctx.arena, 16),
      fn_demux_(fn("tcp_demux")),
      fn_input_(fn("tcp_input")),
      fn_output_(fn("tcp_output")),
      fn_usrsend_(fn("tcp_usrsend")),
      fn_timer_(fn("tcp_timer")),
      fn_cksum_(fn("in_cksum")),
      fn_divq_(fn("divq")),
      fn_map_resolve_(fn("map_resolve")),
      fn_msg_push_(fn("msg_push")),
      fn_msg_pop_(fn("msg_pop")),
      fn_evt_sched_(fn("evt_schedule")),
      fn_evt_cancel_(fn("evt_cancel")) {
  wire_below(&ip);
  ip.attach(kIpProtoTcp, this);
}

Tcp::~Tcp() {
  for (TcpConn* c : connections()) destroy(c);
}

std::vector<TcpConn*> Tcp::connections() {
  std::vector<TcpConn*> all;
  conns_.for_each([&](const xk::MapKey&, TcpConn*& c) { all.push_back(c); });
  listeners_.for_each(
      [&](const xk::MapKey&, TcpConn*& c) { all.push_back(c); });
  return all;
}

std::uint32_t Tcp::tcb_bytes() const {
  // Word-sized fields make the TCB bigger but the code smaller.
  return ctx_.config.tcb_word_fields ? 256 : 184;
}

void Tcp::tcb_load(const TcpConn& c, unsigned field) {
  const unsigned width = ctx_.config.tcb_word_fields ? 8 : 4;
  ctx_.rec.load(c.tcb_sim_ + (field * width) % tcb_bytes(), width);
}

void Tcp::tcb_store(const TcpConn& c, unsigned field) {
  const unsigned width = ctx_.config.tcb_word_fields ? 8 : 4;
  ctx_.rec.store(c.tcb_sim_ + (field * width) % tcb_bytes(), width);
}

xk::MapKey Tcp::conn_key(std::uint32_t rip, std::uint16_t lport,
                         std::uint16_t rport) {
  return xk::MapKey{.hi = rip,
                    .lo = (std::uint64_t{lport} << 16) | rport};
}

xk::MapKey Tcp::listen_key(std::uint16_t port) {
  return xk::MapKey{.hi = 0x7C9, .lo = port};
}

TcpConn* Tcp::connect(std::uint32_t dst_ip, std::uint16_t lport,
                      std::uint16_t rport, TcpUpper* upper) {
  auto* c = new TcpConn(*this, dst_ip, lport, rport, upper);
  c->iss_ = iss_gen_;
  iss_gen_ += 64000;
  c->snd_una_ = c->iss_;
  c->snd_nxt_ = c->iss_ + 1;
  c->cwnd_ = params_.initial_cwnd_segs * params_.mss;
  c->ssthresh_ = 4 * params_.mss;
  c->state_ = TcpState::kSynSent;
  conns_.bind(conn_key(dst_ip, lport, rport), c);
  if (conn_map_hook_) conn_map_hook_(*c, /*bound=*/true);
  send_segment(*c, c->iss_, kSyn, {});
  arm_rexmt(*c);
  return c;
}

void Tcp::listen(std::uint16_t port, TcpUpper* upper) {
  auto* c = new TcpConn(*this, 0, port, 0, upper);
  c->state_ = TcpState::kListen;
  listeners_.bind(listen_key(port), c);
}

void Tcp::destroy(TcpConn* conn) {
  cancel_rexmt(*conn);
  cancel_persist(*conn);
  cancel_keepalive(*conn);
  if (conn->state_ == TcpState::kListen) {
    listeners_.unbind(listen_key(conn->lport_));
  } else {
    conns_.unbind(conn_key(conn->rip_, conn->lport_, conn->rport_));
    if (conn_map_hook_) conn_map_hook_(*conn, /*bound=*/false);
  }
  delete conn;
}

std::size_t Tcp::open_connections() {
  std::size_t n = 0;
  conns_.for_each([&](const xk::MapKey&, TcpConn*& c) {
    if (c->state_ != TcpState::kClosed) ++n;
  });
  return n;
}

TcpConn* Tcp::find(std::uint32_t rip, std::uint16_t lport,
                   std::uint16_t rport) const {
  return conns_.find(conn_key(rip, lport, rport)).value_or(nullptr);
}

void Tcp::ip_deliver(const IpInfo& info, xk::Message& m) {
  auto& rec = ctx_.rec;
  code::TracedCall tc(rec, fn_demux_);
  rec.block(fn_demux_, blk::kTcpDemuxKey);
  ++segs_in_;

  if (m.length() < kTcpHeaderBytes) {
    rec.block(fn_demux_, blk::kTcpDemuxNoConn);
    ++bad_cksum_;
    return;
  }

  // Checksum over pseudo header + segment (before popping the header).
  {
    code::TracedCall tk(rec, fn_cksum_);
    rec.block(fn_cksum_, blk::kCksumSetup);
    rec.block(fn_cksum_, blk::kCksumSmall);
    if (m.length() >= 256) rec.block(fn_cksum_, blk::kCksumUnrolled);
    rec.block(fn_cksum_, blk::kCksumFold);
    touch_buffer(rec, m.sim_addr(), m.length(), /*write=*/false);
  }
  const std::uint16_t csum = inet_checksum(
      m.view(), pseudo_header_sum(info.src, info.dst,
                                  static_cast<std::uint16_t>(m.length())));
  if (csum != 0) {
    // Bad checksum: drop on the outlined error path (block charged to
    // tcp_input, where BSD detects it).
    code::TracedCall ti(rec, fn_input_);
    rec.block(fn_input_, blk::kInBadCksum);
    ++bad_cksum_;
    return;
  }

  std::array<std::uint8_t, kTcpHeaderBytes> hdr{};
  {
    code::TracedCall tp(rec, fn_msg_pop_);
    rec.block(fn_msg_pop_, blk::kMsgPopMain);
    m.pop(hdr);
  }

  Segment seg;
  const std::uint16_t sport = get_be16(hdr, 0);
  const std::uint16_t dport = get_be16(hdr, 2);
  seg.seq = get_be32(hdr, 4);
  seg.ack = get_be32(hdr, 8);
  seg.flags = hdr[13];
  seg.wnd = get_be16(hdr, 14);
  seg.payload_len = static_cast<std::uint16_t>(m.length());

  rec.block(fn_demux_, blk::kTcpDemuxCacheTest);
  auto found = traced_map_lookup(ctx_, conns_,
                                 conn_key(info.src, dport, sport),
                                 fn_map_resolve_);
  // A CLOSED connection no longer owns its 4-tuple: its owner just hasn't
  // destroyed it yet.  Letting it swallow segments would deadlock a peer
  // that crashed and is reconnecting on the same ports, so fall through to
  // the listener / RST path instead.
  if (found.has_value() && (*found)->state_ != TcpState::kClosed) {
    rec.block(fn_demux_, blk::kTcpDemuxFound);
    input(**found, seg, m);
    return;
  }

  // No connection: maybe a listener (SYN), else RST.
  rec.block(fn_demux_, blk::kTcpDemuxNoConn);
  auto lst = listeners_.resolve(listen_key(dport));
  if (lst.has_value() && (seg.flags & kSyn) != 0 &&
      (seg.flags & kAck) == 0) {
    // Evict a dead conn still bound to the tuple (closed above, owner not
    // yet run) so the new incarnation's binding can take its place.
    if (found.has_value()) destroy(*found);
    auto* c = new TcpConn(*this, info.src, dport, sport, (*lst)->upper_);
    c->iss_ = iss_gen_;
    iss_gen_ += 64000;
    c->snd_una_ = c->iss_;
    c->snd_nxt_ = c->iss_ + 1;
    c->cwnd_ = params_.initial_cwnd_segs * params_.mss;
    c->ssthresh_ = 4 * params_.mss;
    c->irs_ = seg.seq;
    c->rcv_nxt_ = seg.seq + 1;
    c->state_ = TcpState::kSynRcvd;
    conns_.bind(conn_key(info.src, dport, sport), c);
    if (conn_map_hook_) conn_map_hook_(*c, /*bound=*/true);
    send_segment(*c, c->iss_, kSyn | kAck, {});
    arm_rexmt(*c);
    return;
  }
  if ((seg.flags & kRst) == 0) send_rst(info, seg, sport, dport);
}

void Tcp::send_rst(const IpInfo& info, const Segment& seg,
                   std::uint16_t sport, std::uint16_t dport) {
  ++rst_out_;
  std::array<std::uint8_t, kTcpHeaderBytes> hdr{};
  // Swapped ports; ack the offending segment.
  // (Built by hand: there is no connection to run send_segment on.)
  xk::Message m(ctx_.arena, 64, 0);
  put_be16(hdr, 0, dport);
  put_be16(hdr, 2, sport);
  put_be32(hdr, 4, seg.ack);
  put_be32(hdr, 8, seg.seq + seg.payload_len + ((seg.flags & kSyn) ? 1 : 0));
  hdr[12] = 5 << 4;
  hdr[13] = kRst | kAck;
  const std::uint32_t psum =
      pseudo_header_sum(info.dst, info.src, kTcpHeaderBytes);
  put_be16(hdr, 16, inet_checksum(hdr, psum));
  m.push(hdr);
  ip_.send(info.src, kIpProtoTcp, m);
}

// ---------------------------------------------------------------------------
// Input processing
// ---------------------------------------------------------------------------

void Tcp::input(TcpConn& c, const Segment& seg, xk::Message& payload) {
  auto& rec = ctx_.rec;
  code::TracedCall tc(rec, fn_input_);
  rec.block(fn_input_, blk::kInValidate);
  tcb_load(c, 0);
  tcb_load(c, 2);
  tcb_load(c, 6);
  touch_buffer(rec, payload.empty() ? c.tcb_sim_ : payload.sim_addr(),
               std::max<std::size_t>(payload.length(), 1),
               /*write=*/false);

  if (ctx_.config.header_prediction) {
    // Header prediction helps only uni-directional flows; on this
    // bi-directional connection the prediction test runs and fails.
    rec.block(fn_input_, blk::kInHdrPred);
  }

  if ((seg.flags & kRst) != 0) {
    rec.block(fn_input_, blk::kInRst);
    c.state_ = TcpState::kClosed;
    cancel_rexmt(c);
    cancel_persist(c);
    cancel_keepalive(c);
    if (c.upper_ != nullptr) c.upper_->tcp_closed(c);
    return;
  }

  // A SYN whose sequence number differs from the IRS this connection
  // remembers is not a retransmit of the handshake we saw: the peer
  // crashed and a new incarnation is reusing the 4-tuple.  The old
  // conversation is unrecoverable — reset it and get out of the way so
  // the peer's SYN retransmit reaches the listener (RFC 793's half-open
  // discovery).  Without this, a SYN_RCVD conn keeps re-sending a
  // SYN|ACK that acks the dead incarnation's ISS and both sides
  // retransmit at each other forever.
  if ((seg.flags & kSyn) != 0 && c.state_ != TcpState::kSynSent &&
      seg.seq != c.irs_) {
    ++rst_out_;
    send_segment(c, c.snd_nxt_, kRst | kAck, {});
    c.state_ = TcpState::kClosed;
    cancel_rexmt(c);
    cancel_persist(c);
    cancel_keepalive(c);
    if (c.upper_ != nullptr) c.upper_->tcp_closed(c);
    return;
  }

  // Any segment from the peer proves it is alive: restart the keepalive
  // idle clock and forget outstanding probes.
  if (params_.keepalive_idle_us != 0 &&
      c.state_ == TcpState::kEstablished) {
    c.keepalive_probes_sent_ = 0;
    arm_keepalive(c);
  }

  if (c.state_ != TcpState::kEstablished) {
    rec.block(fn_input_, blk::kInSlowState);
    input_slow_state(c, seg, payload);
    return;
  }

  if ((seg.flags & kAck) != 0) process_ack(c, seg);
  process_data(c, seg, payload);
  if ((seg.flags & kFin) != 0) process_fin(c, seg);

  rec.block(fn_input_, blk::kInAckDecision);
  tcb_load(c, 9);
  output(c, c.ack_pending_);
}

void Tcp::input_slow_state(TcpConn& c, const Segment& seg,
                           xk::Message& payload) {
  switch (c.state_) {
    case TcpState::kSynSent:
      if ((seg.flags & (kSyn | kAck)) == (kSyn | kAck) &&
          seg.ack == c.iss_ + 1) {
        c.snd_una_ = seg.ack;
        c.irs_ = seg.seq;
        c.rcv_nxt_ = seg.seq + 1;
        c.snd_wnd_ = seg.wnd;
        c.state_ = TcpState::kEstablished;
        cancel_rexmt(c);
        c.backoff_ = 0;
        arm_keepalive(c);
        output(c, /*force_ack=*/true);
        if (c.upper_ != nullptr) c.upper_->tcp_established(c);
      }
      break;

    case TcpState::kSynRcvd:
      if ((seg.flags & kAck) != 0 && seg.ack == c.iss_ + 1) {
        c.snd_una_ = seg.ack;
        c.snd_wnd_ = seg.wnd;
        c.state_ = TcpState::kEstablished;
        cancel_rexmt(c);
        c.backoff_ = 0;
        arm_keepalive(c);
        if (c.upper_ != nullptr) c.upper_->tcp_established(c);
        // The ACK completing the handshake may carry data.
        if (seg.payload_len > 0) {
          process_data(c, seg, payload);
          output(c, c.ack_pending_);
        }
      } else if ((seg.flags & kSyn) != 0) {
        // Duplicate SYN: re-send SYN|ACK.
        send_segment(c, c.iss_, kSyn | kAck, {});
      }
      break;

    case TcpState::kFinWait1:
      if ((seg.flags & kAck) != 0) process_ack(c, seg);
      process_data(c, seg, payload);
      if ((seg.flags & kFin) != 0) {
        process_fin(c, seg);
        c.state_ = seq_leq(c.snd_nxt_, c.snd_una_) ? TcpState::kTimeWait
                                                   : TcpState::kClosing;
        output(c, /*force_ack=*/true);
      } else if (c.fin_sent_ && seq_leq(c.snd_nxt_, c.snd_una_)) {
        c.state_ = TcpState::kFinWait2;
        if (c.ack_pending_) output(c, true);
      } else if (c.ack_pending_) {
        output(c, true);
      }
      break;

    case TcpState::kFinWait2:
      if ((seg.flags & kAck) != 0) process_ack(c, seg);
      process_data(c, seg, payload);
      if ((seg.flags & kFin) != 0) {
        process_fin(c, seg);
        c.state_ = TcpState::kTimeWait;
        output(c, /*force_ack=*/true);
        if (c.upper_ != nullptr) c.upper_->tcp_closed(c);
      } else if (c.ack_pending_) {
        output(c, true);
      }
      break;

    case TcpState::kClosing:
      if ((seg.flags & kAck) != 0) {
        process_ack(c, seg);
        if (seq_leq(c.snd_nxt_, c.snd_una_)) {
          c.state_ = TcpState::kTimeWait;
          if (c.upper_ != nullptr) c.upper_->tcp_closed(c);
        }
      }
      break;

    case TcpState::kLastAck:
      if ((seg.flags & kAck) != 0 && seq_leq(c.snd_nxt_, seg.ack)) {
        c.state_ = TcpState::kClosed;
        cancel_rexmt(c);
        if (c.upper_ != nullptr) c.upper_->tcp_closed(c);
      }
      break;

    case TcpState::kTimeWait:
      if ((seg.flags & kFin) != 0) output(c, /*force_ack=*/true);
      break;

    case TcpState::kCloseWait:
      if ((seg.flags & kAck) != 0) process_ack(c, seg);
      break;

    default:
      break;
  }
}

void Tcp::process_ack(TcpConn& c, const Segment& seg) {
  auto& rec = ctx_.rec;
  rec.block(fn_input_, blk::kInAckProc);
  tcb_load(c, 1);
  tcb_load(c, 3);
  tcb_store(c, 1);

  const bool was_zero = c.snd_wnd_ == 0;
  c.snd_wnd_ = seg.wnd;
  if (was_zero && c.snd_wnd_ > 0 && c.persist_event_ != 0) {
    // The window reopened: leave the persist state immediately.
    cancel_persist(c);
    output(c, /*force_ack=*/false);
  }
  if (!seq_lt(c.snd_una_, seg.ack) || !seq_leq(seg.ack, c.snd_nxt_)) {
    return;  // duplicate or out-of-range ACK
  }

  std::uint32_t acked = seg.ack - c.snd_una_;
  c.snd_una_ = seg.ack;
  // Remove acked data bytes (SYN/FIN occupy sequence space but no buffer).
  const std::uint32_t data_acked =
      std::min<std::uint32_t>(acked, static_cast<std::uint32_t>(c.sndbuf_.size()));
  c.sndbuf_.erase(c.sndbuf_.begin(), c.sndbuf_.begin() + data_acked);
  c.backoff_ = 0;

  // Congestion window update (Section 2.2.2).  The latency-sensitive
  // common case — the window is fully open — is testable in a couple of
  // instructions; otherwise slow start / congestion avoidance runs, and
  // congestion avoidance divides (a function call on the Alpha).
  rec.block(fn_input_, blk::kInCwndUpdate);
  const std::uint32_t cap = 65535;
  const bool fully_open = c.cwnd_ >= cap;
  if (!(ctx_.config.avoid_int_division && fully_open)) {
    if (c.cwnd_ < c.ssthresh_) {
      c.cwnd_ = std::min(cap, c.cwnd_ + params_.mss);
    } else if (!fully_open) {
      if (!ctx_.config.avoid_int_division || true) {
        // cwnd += mss*mss/cwnd: the divide goes through the software
        // division routine.
        code::TracedCall td(rec, fn_divq_);
        rec.block(fn_divq_, blk::kDivqMain);
      }
      c.cwnd_ = std::min(
          cap, c.cwnd_ + std::max<std::uint32_t>(
                             1, static_cast<std::uint32_t>(
                                    std::uint64_t{params_.mss} * params_.mss /
                                    c.cwnd_)));
    }
  }

  if (seq_lt(c.snd_una_, c.snd_nxt_)) {
    arm_rexmt(c);  // restart for remaining outstanding data
  } else {
    cancel_rexmt(c);
  }
}

void Tcp::process_data(TcpConn& c, const Segment& seg, xk::Message& payload) {
  auto& rec = ctx_.rec;
  if (seg.payload_len == 0) return;

  rec.block(fn_input_, blk::kInSeqProc);
  tcb_load(c, 5);
  tcb_store(c, 5);

  const std::uint32_t win_edge = c.rcv_nxt_ + receive_window(c);
  if (seg.seq == c.rcv_nxt_) {
    // Respect our own advertised window: accept at most the in-window
    // prefix; a probe byte against a closed window is not consumed, only
    // re-ACKed (with the current window).
    const std::uint32_t acceptable =
        std::min<std::uint32_t>(seg.payload_len, receive_window(c));
    if (acceptable == 0) {
      c.ack_pending_ = true;
      return;
    }
    if (acceptable < seg.payload_len) {
      payload.trim_back(seg.payload_len - acceptable);
    }
    c.rcv_nxt_ += acceptable;
    c.ack_pending_ = true;
    rec.block(fn_input_, blk::kInDataDeliver);
    if (c.upper_ != nullptr) c.upper_->tcp_receive(c, payload);
    // Drain any contiguous out-of-order data.
    auto it = c.ooo_.find(c.rcv_nxt_);
    while (it != c.ooo_.end()) {
      xk::Message m(ctx_.arena, 0, it->second.size());
      std::copy(it->second.begin(), it->second.end(), m.data());
      c.rcv_nxt_ += static_cast<std::uint32_t>(it->second.size());
      if (c.upper_ != nullptr) c.upper_->tcp_receive(c, m);
      c.ooo_.erase(it);
      it = c.ooo_.find(c.rcv_nxt_);
    }
  } else if (seq_lt(c.rcv_nxt_, seg.seq) && seq_lt(seg.seq, win_edge)) {
    // In-window but out of order: buffer it, ask for a dup ACK.
    rec.block(fn_input_, blk::kInOutOfOrder);
    c.ooo_[seg.seq] = std::vector<std::uint8_t>(payload.view().begin(),
                                                payload.view().end());
    c.ack_pending_ = true;
  } else {
    // Old duplicate: re-ACK.
    c.ack_pending_ = true;
  }
}

void Tcp::process_fin(TcpConn& c, const Segment& seg) {
  auto& rec = ctx_.rec;
  rec.block(fn_input_, blk::kInFin);
  const std::uint32_t fin_seq = seg.seq + seg.payload_len;
  if (fin_seq != c.rcv_nxt_) return;  // FIN not yet in order
  c.rcv_nxt_ += 1;
  c.fin_rcvd_ = true;
  c.ack_pending_ = true;
  if (c.state_ == TcpState::kEstablished) {
    c.state_ = TcpState::kCloseWait;
    if (c.upper_ != nullptr) c.upper_->tcp_closed(c);
  }
}

// ---------------------------------------------------------------------------
// Output processing
// ---------------------------------------------------------------------------

std::uint32_t Tcp::receive_window(TcpConn& c) const {
  (void)c;
  if (rcv_wnd_override_ != ~0u) return rcv_wnd_override_;
  return params_.max_window;  // data is consumed synchronously by the upcall
}

bool Tcp::window_update_due(TcpConn& c) {
  auto& rec = ctx_.rec;
  rec.block(fn_output_, blk::kOutWinCheck);
  const std::uint32_t new_edge = c.rcv_nxt_ + receive_window(c);
  if (seq_leq(new_edge, c.rcv_adv_)) return false;
  const std::uint32_t opening = new_edge - c.rcv_adv_;

  rec.block(fn_output_, blk::kOutWinCalc);
  std::uint32_t threshold;
  if (ctx_.config.avoid_int_division) {
    // ~33% of the maximum window by shift and add (no multiply, no divide).
    const std::uint32_t w = params_.max_window;
    threshold = (w >> 2) + (w >> 4);
  } else {
    // 35% of the maximum window: multiply, then divide via the software
    // division routine.
    code::TracedCall td(rec, fn_divq_);
    rec.block(fn_divq_, blk::kDivqMain);
    threshold = static_cast<std::uint32_t>(
        std::uint64_t{params_.max_window} * 35 / 100);
  }
  const bool due =
      opening >= threshold || opening >= 2u * params_.mss;
  if (due) ++c.window_updates_;
  return due;
}

void Tcp::output(TcpConn& c, bool force_ack) {
  auto& rec = ctx_.rec;
  code::TracedCall tc(rec, fn_output_);
  rec.block(fn_output_, blk::kOutPreamble);
  tcb_load(c, 1);
  tcb_load(c, 3);
  tcb_load(c, 7);
  tcb_store(c, 8);

  const std::uint32_t in_flight = c.snd_nxt_ - c.snd_una_;
  // A zero peer window really blocks transmission (the persist machinery
  // probes it); the congestion window never falls below one segment.
  const std::uint32_t wnd = std::min(c.snd_wnd_, c.cwnd_);
  const std::uint32_t buffered =
      static_cast<std::uint32_t>(c.sndbuf_.size());
  // Data already in flight occupies the front of the buffer.
  const std::uint32_t offset =
      std::min(in_flight, buffered);
  const std::uint32_t usable_wnd = wnd > in_flight ? wnd - in_flight : 0;
  const std::uint32_t len = std::min<std::uint32_t>(
      {params_.mss, buffered - offset, usable_wnd});

  const bool want_update = window_update_due(c);

  // Data may be flushed in every state that still owns a send stream, not
  // just kEstablished: kCloseWait (the peer closed first, our direction
  // stays open) and the FIN-pending states while buffered bytes remain
  // untransmitted.  The FIN below waits for all_data_sent, so refusing to
  // flush here would deadlock a close() with a non-empty send buffer.
  const bool can_send_data =
      c.state_ == TcpState::kEstablished ||
      c.state_ == TcpState::kCloseWait ||
      c.state_ == TcpState::kFinWait1 || c.state_ == TcpState::kClosing ||
      c.state_ == TcpState::kLastAck;
  if (len > 0 && can_send_data) {
    cancel_persist(c);
    seg_payload_.assign(c.sndbuf_.begin() + offset,
                        c.sndbuf_.begin() + offset + len);
    send_segment(c, c.snd_nxt_, kAck | kPsh, seg_payload_);
    c.snd_nxt_ += len;
    c.ack_pending_ = false;
    arm_rexmt(c);
    return;
  }

  // Zero send window with data pending: enter the persist state and probe
  // the peer periodically (the outlined kOutPersist path).
  if (c.state_ == TcpState::kEstablished && buffered > offset &&
      usable_wnd == 0 && c.snd_wnd_ == 0 && in_flight == 0) {
    rec.block(fn_output_, blk::kOutPersist);
    if (c.persist_event_ == 0) arm_persist(c);
  }

  const bool all_data_sent = offset == buffered;
  const bool want_fin = (c.state_ == TcpState::kFinWait1 ||
                         c.state_ == TcpState::kLastAck ||
                         c.state_ == TcpState::kClosing) &&
                        !c.fin_sent_ && all_data_sent;
  if (want_fin) {
    send_segment(c, c.snd_nxt_, kFin | kAck, {});
    c.snd_nxt_ += 1;
    c.fin_sent_ = true;
    c.ack_pending_ = false;
    arm_rexmt(c);
    return;
  }

  if (force_ack || c.ack_pending_ || want_update) {
    send_segment(c, c.snd_nxt_, kAck, {});
    c.ack_pending_ = false;
  }
}

void Tcp::send_segment(TcpConn& c, std::uint32_t seq, std::uint8_t flags,
                       std::span<const std::uint8_t> payload) {
  auto& rec = ctx_.rec;
  rec.block(fn_output_, blk::kOutBuildHdr);
  tcb_load(c, 10);
  tcb_store(c, 11);

  xk::Message m(ctx_.arena, 64, payload.size());
  if (!payload.empty()) {
    std::copy(payload.begin(), payload.end(), m.data());
    touch_buffer(rec, m.sim_addr(), payload.size(), /*write=*/true);
  }

  std::array<std::uint8_t, kTcpHeaderBytes> hdr{};
  put_be16(hdr, 0, c.lport_);
  put_be16(hdr, 2, c.rport_);
  put_be32(hdr, 4, seq);
  const std::uint32_t win = receive_window(c);
  if ((flags & kAck) != 0) {
    put_be32(hdr, 8, c.rcv_nxt_);
    c.rcv_adv_ = c.rcv_nxt_ + win;
  }
  hdr[12] = 5 << 4;
  hdr[13] = flags;
  put_be16(hdr, 14, static_cast<std::uint16_t>(win));

  // Checksum over pseudo header + header + payload.
  rec.block(fn_output_, blk::kOutCksum);
  {
    code::TracedCall tk(rec, fn_cksum_);
    rec.block(fn_cksum_, blk::kCksumSetup);
    rec.block(fn_cksum_, blk::kCksumSmall);
    if (payload.size() >= 256) rec.block(fn_cksum_, blk::kCksumUnrolled);
    rec.block(fn_cksum_, blk::kCksumFold);
  }
  const std::uint16_t tcp_len =
      static_cast<std::uint16_t>(kTcpHeaderBytes + payload.size());
  std::uint32_t sum = pseudo_header_sum(ip_.address() == 0 ? 0 : ip_.address(),
                                        c.rip_, tcp_len);
  sum = checksum_accumulate(hdr, sum);
  const std::uint16_t csum = inet_checksum(m.view(), sum);
  put_be16(hdr, 16, csum);

  {
    code::TracedCall tp(rec, fn_msg_push_);
    rec.block(fn_msg_push_, blk::kMsgPushMain);
    m.push(hdr);
    touch_buffer(rec, m.sim_addr(), hdr.size(), /*write=*/true);
  }

  rec.block(fn_output_, blk::kOutSendDown);
  ++segs_out_;
  ip_.send(c.rip_, kIpProtoTcp, m);
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

void Tcp::arm_persist(TcpConn& c) {
  cancel_persist(c);
  const std::uint64_t delay = std::min<std::uint64_t>(
      params_.rto_us << c.persist_backoff_, params_.max_rto_us);
  c.persist_event_ = ctx_.events.schedule_in(
      delay, [this, conn = &c] { persist_timeout(conn); });
}

void Tcp::cancel_persist(TcpConn& c) {
  if (c.persist_event_ != 0) {
    ctx_.events.cancel(c.persist_event_);
    c.persist_event_ = 0;
    c.persist_backoff_ = 0;
  }
}

void Tcp::persist_timeout(TcpConn* c) {
  c->persist_event_ = 0;
  if (c->state_ != TcpState::kEstablished) return;
  const std::uint32_t in_flight = c->snd_nxt_ - c->snd_una_;
  const std::uint32_t buffered =
      static_cast<std::uint32_t>(c->sndbuf_.size());
  if (c->snd_wnd_ > 0 || in_flight > 0 || buffered == 0) {
    // Window opened (or nothing to probe with): resume normal output.
    output(*c, /*force_ack=*/false);
    return;
  }
  // Send a one-byte window probe beyond the advertised window (the
  // receiver answers with an ACK carrying its current window).
  auto& rec = ctx_.rec;
  code::TracedCall tt(rec, fn_timer_);
  rec.block(fn_timer_, blk::kTimerMain);
  rec.block(fn_input_, blk::kInWindowProbe);
  ++c->window_probes_;
  seg_payload_.assign(c->sndbuf_.begin(), c->sndbuf_.begin() + 1);
  send_segment(*c, c->snd_nxt_, kAck, seg_payload_);
  if (c->persist_backoff_ < 10) ++c->persist_backoff_;
  arm_persist(*c);
}

void Tcp::arm_rexmt(TcpConn& c) {
  auto& rec = ctx_.rec;
  cancel_rexmt(c);
  rec.block(fn_output_, blk::kOutSetRexmt);
  {
    code::TracedCall te(rec, fn_evt_sched_);
    rec.block(fn_evt_sched_, blk::kEvtSchedMain);
  }
  const std::uint64_t rto =
      std::min<std::uint64_t>(params_.rto_us << c.backoff_,
                              params_.max_rto_us);
  c.rexmt_event_ =
      ctx_.events.schedule_in(rto, [this, conn = &c] { rexmt_timeout(conn); });
}

void Tcp::cancel_rexmt(TcpConn& c) {
  if (c.rexmt_event_ != 0) {
    auto& rec = ctx_.rec;
    code::TracedCall te(rec, fn_evt_cancel_);
    rec.block(fn_evt_cancel_, blk::kEvtCancelMain);
    ctx_.events.cancel(c.rexmt_event_);
    c.rexmt_event_ = 0;
  }
}

void Tcp::rexmt_timeout(TcpConn* c) {
  auto& rec = ctx_.rec;
  c->rexmt_event_ = 0;
  code::TracedCall tt(rec, fn_timer_);
  rec.block(fn_timer_, blk::kTimerMain);
  rec.block(fn_timer_, blk::kTimerRexmt);

  ++c->retransmits_;
  if (c->backoff_ < 12) ++c->backoff_;
  // Multiplicative decrease on timeout.
  c->ssthresh_ = std::max<std::uint32_t>(
      (std::min(c->cwnd_, c->snd_wnd_) / 2 / params_.mss) * params_.mss,
      2u * params_.mss);
  c->cwnd_ = params_.mss;

  switch (c->state_) {
    case TcpState::kSynSent:
      ++c->syn_rexmts_;
      if (params_.max_syn_rexmts != 0 &&
          c->syn_rexmts_ > params_.max_syn_rexmts) {
        // Retries exhausted: give up on the active open and surface the
        // failure.  The connection stays in the map as CLOSED (no timers
        // pending); the caller owns destroying it.
        rec.block(fn_timer_, blk::kTimerGiveup);
        ++connect_failures_;
        c->state_ = TcpState::kClosed;
        cancel_persist(*c);
        cancel_keepalive(*c);
        if (c->upper_ != nullptr) c->upper_->tcp_connect_failed(*c);
        break;
      }
      send_segment(*c, c->iss_, kSyn, {});
      arm_rexmt(*c);
      break;
    case TcpState::kSynRcvd:
      ++c->syn_rexmts_;
      if (params_.max_syn_rexmts != 0 &&
          c->syn_rexmts_ > params_.max_syn_rexmts) {
        // Embryonic connection abandoned (the handshake-completing ACK
        // never came — e.g. the client crashed mid-handshake).
        rec.block(fn_timer_, blk::kTimerGiveup);
        c->state_ = TcpState::kClosed;
        cancel_persist(*c);
        cancel_keepalive(*c);
        break;
      }
      send_segment(*c, c->iss_, kSyn | kAck, {});
      arm_rexmt(*c);
      break;
    default: {
      // Go-back-N: rewind and resend from the first unacked byte.
      const bool fin_outstanding = c->fin_sent_;
      c->snd_nxt_ = c->snd_una_;
      c->fin_sent_ = false;
      output(*c, /*force_ack=*/false);
      if (fin_outstanding && !c->fin_sent_) {
        // Only the FIN was outstanding.
        send_segment(*c, c->snd_nxt_, kFin | kAck, {});
        c->snd_nxt_ += 1;
        c->fin_sent_ = true;
        arm_rexmt(*c);
      }
      break;
    }
  }
}

void Tcp::arm_keepalive(TcpConn& c) {
  if (params_.keepalive_idle_us == 0) return;
  cancel_keepalive(c);
  const std::uint64_t delay = c.keepalive_probes_sent_ == 0
                                  ? params_.keepalive_idle_us
                                  : params_.keepalive_intvl_us;
  c.keepalive_event_ = ctx_.events.schedule_in(
      delay, [this, conn = &c] { keepalive_timeout(conn); });
}

void Tcp::cancel_keepalive(TcpConn& c) {
  // Leaves keepalive_probes_sent_ alone: arm_keepalive re-arms through
  // here mid-probe-cycle and must not forget how many probes went out.
  if (c.keepalive_event_ != 0) {
    ctx_.events.cancel(c.keepalive_event_);
    c.keepalive_event_ = 0;
  }
}

void Tcp::keepalive_timeout(TcpConn* c) {
  c->keepalive_event_ = 0;
  if (c->state_ != TcpState::kEstablished) return;  // idle fire after close
  auto& rec = ctx_.rec;
  code::TracedCall tt(rec, fn_timer_);
  rec.block(fn_timer_, blk::kTimerMain);

  if (c->keepalive_probes_sent_ >= params_.keepalive_probes) {
    // The peer answered none of the probes: reap the half-open connection
    // its crash left behind.
    rec.block(fn_timer_, blk::kTimerGiveup);
    ++keepalive_reaps_;
    c->state_ = TcpState::kClosed;
    cancel_rexmt(*c);
    cancel_persist(*c);
    c->keepalive_probes_sent_ = 0;
    if (c->upper_ != nullptr) c->upper_->tcp_closed(*c);
    return;
  }

  // Probe with one garbage byte just below the window (seq snd_una-1): a
  // live peer's old-duplicate path answers with a bare ACK, which resets
  // the idle clock on arrival here.
  rec.block(fn_timer_, blk::kTimerKeepalive);
  ++c->keepalive_probes_sent_;
  ++keepalive_probes_total_;
  const std::uint8_t junk[1] = {0};
  send_segment(*c, c->snd_una_ - 1, kAck, junk);
  arm_keepalive(*c);
}

}  // namespace l96::proto
