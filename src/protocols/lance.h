// LANCE Ethernet device driver (device-dependent half).
//
// The driver owns transmit and receive descriptor rings in the chip's
// sparse shared memory (see usc.h) and a pool of pre-allocated messages for
// the interrupt path.  Descriptor updates use either USC-generated direct
// sparse access or the traditional copy-in/copy-out discipline, selected by
// StackConfig::usc_sparse_descriptors; message-pool refresh uses either the
// free()+malloc() slow path or the Section-2.2.2 short circuit, selected by
// StackConfig::msg_refresh_shortcut.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "protocols/usc.h"
#include "xkernel/message.h"
#include "xkernel/protocol.h"

namespace l96::proto {

class Lance final : public xk::Protocol {
 public:
  /// Hands a serialized frame to the wire (which copies it).
  using TransmitFn = std::function<void(std::span<const std::uint8_t>)>;

  static constexpr std::size_t kRingSize = 16;
  static constexpr std::size_t kMaxFrame = 1518;
  static constexpr std::size_t kMinFrame = 64;
  static constexpr std::size_t kPoolMessages = 32;
  static constexpr std::size_t kPoolHeadroom = 64;

  Lance(xk::ProtoCtx& ctx, TransmitFn transmit);

  /// The protocol above (ETH's device-independent half).
  void attach(Protocol* upper) { upper_ = upper; }

  /// Transmit `m` (a complete Ethernet frame).  Pads to the 64-byte
  /// minimum frame size on the wire.
  void send(xk::Message& m);

  /// Receive-frame interrupt from the wire.
  void rx_frame(std::span<const std::uint8_t> frame);

  void demux(xk::Message&) override {}  // nothing sits below a driver

  xk::MsgPool& pool() noexcept { return pool_; }

  std::uint64_t tx_frames() const noexcept { return tx_frames_; }
  std::uint64_t rx_frames() const noexcept { return rx_frames_; }
  std::uint64_t rx_dropped() const noexcept { return rx_dropped_; }

 private:
  void update_tx_descriptor(std::size_t idx, std::uint16_t len);
  void complete_tx_descriptor(std::size_t idx);
  std::uint16_t read_rx_status(std::size_t idx);
  void giveback_rx_descriptor(std::size_t idx);

  TransmitFn transmit_;
  Protocol* upper_ = nullptr;

  SparseRegion shared_;  // [tx ring | rx ring] descriptors
  std::size_t tx_next_ = 0;
  std::size_t rx_next_ = 0;
  /// The frame being handed to the wire, reused across sends: it holds
  /// the message bytes zero-padded to kMinFrame.
  std::vector<std::uint8_t> tx_frame_;

  xk::MsgPool pool_;

  std::uint64_t tx_frames_ = 0;
  std::uint64_t rx_frames_ = 0;
  std::uint64_t rx_dropped_ = 0;

  code::FnId fn_send_;
  code::FnId fn_intr_;
  code::FnId fn_pool_get_;
  code::FnId fn_pool_put_;
  code::FnId fn_refresh_;
  code::FnId fn_free_;
  code::FnId fn_malloc_;
};

}  // namespace l96::proto
