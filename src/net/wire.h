// The isolated Ethernet segment and LANCE controller timing model.
//
// The experimental platform (Section 4.3): minimum-sized Ethernet frames
// are 64 bytes plus an 8-byte preamble, so a frame occupies the 10 Mb/s
// wire for 57.6 us; the LANCE controller adds another ~47 us between being
// handed a frame and raising the "transmission complete" interrupt — the
// paper measures the combined 105 us per message and subtracts 210 us per
// roundtrip in Table 5.  The wire also hosts the deterministic fault
// injector (net/fault.h): every transmit consults the installed FaultPlan
// and may drop, corrupt, duplicate, reorder, or delay the frame, with full
// conservation accounting (frames offered + duplicates injected ==
// delivered + dropped + in flight).
//
// Frame buffers: transmit() copies the offered bytes into a buffer the
// wire owns, and a delivered (or blacked-out) frame's buffer returns to a
// small free list the next transmit reuses, so a steady exchange moves
// frames without host allocations.  Every in-flight frame — an injected
// duplicate included — has its own buffer.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "net/fault.h"
#include "xkernel/event.h"

namespace l96::net {

struct WireParams {
  double mbps = 10.0;
  double preamble_bytes = 8.0;
  double controller_overhead_us = 47.4;  ///< LANCE chip latency per frame

  /// Serialization time of a frame on the wire.
  double frame_time_us(std::size_t bytes) const {
    return (static_cast<double>(bytes) + preamble_bytes) * 8.0 / mbps;
  }
  /// One-way latency from handing a frame to the controller until the
  /// destination interrupt fires (the paper's measured 105 us for minimum
  /// frames).
  double one_way_us(std::size_t bytes) const {
    return frame_time_us(bytes) + controller_overhead_us;
  }
};

class Wire {
 public:
  using DeliverFn = std::function<void(std::span<const std::uint8_t>)>;

  /// Spare frame buffers kept for reuse.  Frames past this many in
  /// flight at once get buffers of their own, freed on arrival.
  static constexpr std::size_t kSpareFrames = 8;

  Wire(xk::EventManager& events, WireParams params = WireParams())
      : events_(events), params_(params) {
    spare_.reserve(kSpareFrames);
  }

  /// Attach endpoint `port` (0 or 1).
  void connect(int port, DeliverFn deliver);

  /// Transmit a copy of `frame` from `port` to the other endpoint.
  void transmit(int port, std::span<const std::uint8_t> frame);

  /// Hard link blackout (chaos timeline), distinct from the FaultPlan's
  /// probabilistic drops: while the link is down every offered frame is
  /// blackholed (counted in blackout_drops, not the injector's drop
  /// counter), any frame parked in a reorder hold is lost with it, and a
  /// frame already in flight is lost too unless the link is back up by its
  /// arrival time — a cable cut takes the bits on the medium with it, so
  /// nothing is delivered inside [link_down, link_up).
  void set_link(bool up);
  void link_down() { set_link(false); }
  void link_up() { set_link(true); }
  bool is_link_up() const noexcept { return link_up_; }
  std::uint64_t blackout_drops() const noexcept { return blackout_drops_; }
  std::uint64_t blackouts() const noexcept { return blackouts_; }

  // Legacy one-shot fault API (thin wrappers over the injector; consumed
  // in transmit order, either direction).
  void drop_next(int count = 1) { injector_.force_drop(count); }
  void corrupt_next(int count = 1) { injector_.force_corrupt(count); }

  /// Install a fault plan (resets injector state, counters, and log).
  void set_fault_plan(const FaultPlan& plan) { injector_.set_plan(plan); }
  FaultInjector& injector() noexcept { return injector_; }
  const FaultCounters& fault_counters() const noexcept {
    return injector_.counters();
  }
  const std::vector<FaultRecord>& fault_log() const noexcept {
    return injector_.log();
  }

  std::uint64_t frames_carried() const noexcept { return frames_; }
  std::uint64_t frames_delivered() const noexcept { return delivered_; }
  std::uint64_t frames_dropped() const noexcept { return dropped_; }
  /// Scheduled deliveries not yet fired plus frames in a reorder hold.
  std::uint64_t frames_in_flight() const noexcept { return in_flight_; }
  /// Frame conservation: everything offered (plus injected duplicates) is
  /// delivered, dropped by the fault injector, lost to a link blackout, or
  /// still in flight.
  bool conserved() const noexcept {
    return frames_ + injector_.counters().duplicates ==
           delivered_ + dropped_ + blackout_drops_ + in_flight_;
  }
  const WireParams& params() const noexcept { return params_; }

 private:
  using Frame = std::vector<std::uint8_t>;

  void schedule_delivery(int port, Frame frame, std::uint64_t extra_us);
  /// A wire-owned copy of `bytes`, in a recycled buffer when one is spare.
  Frame take_frame(std::span<const std::uint8_t> bytes);
  /// Return a finished frame's buffer to the spare list (when not full).
  void recycle(Frame&& frame);
  /// Flush the reorder hold slot for `port` (the held frame departs after
  /// whatever was just scheduled).
  void release_held(int port);

  struct Held {
    Frame frame;
    xk::EventManager::EventId fallback = 0;
    bool active = false;
  };

  xk::EventManager& events_;
  WireParams params_;
  DeliverFn endpoints_[2];
  std::uint64_t busy_until_us_ = 0;  ///< half-duplex medium serialization
  FaultInjector injector_;
  Held held_[2];  ///< one reorder hold slot per transmitting port
  std::vector<Frame> spare_;  ///< recycled frame buffers, <= kSpareFrames
  bool link_up_ = true;
  std::uint64_t frames_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t blackout_drops_ = 0;
  std::uint64_t blackouts_ = 0;  ///< link_down transitions
  std::uint64_t in_flight_ = 0;
};

}  // namespace l96::net
