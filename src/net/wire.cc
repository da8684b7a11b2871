#include "net/wire.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace l96::net {

void Wire::connect(int port, DeliverFn deliver) {
  if (port != 0 && port != 1) throw std::out_of_range("wire has two ports");
  endpoints_[port] = std::move(deliver);
}

void Wire::transmit(int port, std::span<const std::uint8_t> bytes) {
  if (port != 0 && port != 1) throw std::out_of_range("wire has two ports");
  ++frames_;

  // A blacked-out link swallows the frame before the fault injector ever
  // sees it: the deterministic fault schedule is not consumed by frames
  // that never reached the medium.
  if (!link_up_) {
    ++blackout_drops_;
    return;
  }

  const FaultDecision d = injector_.next(port, bytes.size(), events_.now());
  if (d.kind == FaultKind::kDrop) {
    ++dropped_;
    // The dropped frame still counts as this direction's "next" frame;
    // flush any held frame so it is not stranded behind a ghost.
    release_held(port);
    return;
  }
  Frame frame = take_frame(bytes);
  switch (d.kind) {
    case FaultKind::kCorrupt:
      if (!frame.empty()) frame[d.arg % frame.size()] ^= 0xFF;
      break;
    case FaultKind::kReorder:
      // Displace any earlier hold, then park this frame: it departs right
      // after the next transmit in this direction, or after the fallback
      // timer if no successor shows up.
      release_held(port);
      held_[port].frame = std::move(frame);
      held_[port].active = true;
      held_[port].fallback =
          events_.schedule_in(injector_.plan().reorder_hold_us, [this, port] {
            held_[port].fallback = 0;
            release_held(port);
          });
      ++in_flight_;
      return;
    default:
      break;
  }

  if (d.kind == FaultKind::kDuplicate) {
    // The duplicate gets its own buffer; the original departs below.
    schedule_delivery(port, take_frame(frame), 0);
  }
  schedule_delivery(port, std::move(frame),
                    d.kind == FaultKind::kDelay ? d.arg : 0);
  release_held(port);
}

Wire::Frame Wire::take_frame(std::span<const std::uint8_t> bytes) {
  if (spare_.empty()) return Frame(bytes.begin(), bytes.end());
  Frame frame = std::move(spare_.back());
  spare_.pop_back();
  frame.assign(bytes.begin(), bytes.end());
  return frame;
}

void Wire::recycle(Frame&& frame) {
  if (spare_.size() < kSpareFrames) spare_.push_back(std::move(frame));
}

void Wire::schedule_delivery(int port, Frame frame, std::uint64_t extra_us) {
  const int dst = 1 - port;
  // Half-duplex Ethernet: a frame must wait for the medium.  Serialization
  // occupies the wire for frame_time; the controller overhead then runs at
  // the receiver, off the medium.  An injected delay models a controller
  // hiccup on the receive side: it pushes out the interrupt without
  // holding the wire busy.
  const auto frame_us =
      static_cast<std::uint64_t>(params_.frame_time_us(frame.size()));
  const auto ctrl_us =
      static_cast<std::uint64_t>(params_.controller_overhead_us);
  const std::uint64_t depart =
      std::max(events_.now(), busy_until_us_) + frame_us;
  busy_until_us_ = depart;
  ++in_flight_;
  auto deliver = [this, dst, f = std::move(frame)]() mutable {
    --in_flight_;
    // A frame arrives only if the link is up at arrival time: a cut
    // mid-flight loses it (so a blackout window is provably dark from its
    // first microsecond).
    if (!link_up_) {
      ++blackout_drops_;
    } else {
      ++delivered_;
      if (endpoints_[dst]) endpoints_[dst](f);
    }
    recycle(std::move(f));
  };
  static_assert(sizeof(deliver) <= xk::EventHandler::kInlineBytes,
                "a wire delivery must fit the event slot's inline storage");
  events_.schedule_at(depart + ctrl_us + extra_us, std::move(deliver));
}

void Wire::set_link(bool up) {
  if (up == link_up_) return;
  link_up_ = up;
  if (up) return;
  ++blackouts_;
  // Frames parked in a reorder hold have not departed yet; the cut loses
  // them immediately.  Already-scheduled deliveries are still on the
  // medium: their delivery events check the link again at arrival time and
  // die there if the blackout outlasts them.
  for (int port = 0; port < 2; ++port) {
    if (!held_[port].active) continue;
    held_[port].active = false;
    if (held_[port].fallback != 0) {
      events_.cancel(held_[port].fallback);
      held_[port].fallback = 0;
    }
    recycle(std::move(held_[port].frame));
    --in_flight_;
    ++blackout_drops_;
  }
}

void Wire::release_held(int port) {
  if (!held_[port].active) return;
  held_[port].active = false;
  if (held_[port].fallback != 0) {
    events_.cancel(held_[port].fallback);
    held_[port].fallback = 0;
  }
  --in_flight_;
  schedule_delivery(port, std::move(held_[port].frame), 0);
}

}  // namespace l96::net
