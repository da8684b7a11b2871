#include "protocols/lance.h"

#include "protocols/stack_code.h"
#include "protocols/trace_util.h"

namespace l96::proto {

namespace {
constexpr std::size_t kDescStride = LanceDescriptor::kDenseBytes;
constexpr std::size_t rx_ring_base() {
  return Lance::kRingSize * kDescStride;  // rx ring follows tx ring
}
}  // namespace

Lance::Lance(xk::ProtoCtx& ctx, TransmitFn transmit)
    : Protocol("lance", ctx),
      transmit_(std::move(transmit)),
      shared_(ctx.arena, 2 * kRingSize * kDescStride),
      pool_(ctx.arena, kPoolMessages, kPoolHeadroom, kMaxFrame),
      fn_send_(fn("lance_send")),
      fn_intr_(fn("lance_intr")),
      fn_pool_get_(fn("pool_get")),
      fn_pool_put_(fn("pool_put")),
      fn_refresh_(fn("msg_refresh")),
      fn_free_(fn("free")),
      fn_malloc_(fn("malloc")) {}

void Lance::update_tx_descriptor(std::size_t idx, std::uint16_t len) {
  auto& rec = ctx_.rec;
  const std::size_t off = idx * kDescStride;
  if (ctx_.config.usc_sparse_descriptors) {
    // USC accessors: write only the fields that change, directly in sparse
    // memory.
    usc_write_field(shared_, off, DescField::kLength, len);
    rec.store(shared_.sparse_addr(off + 4), 2);
    usc_write_field(shared_, off, DescField::kBuffer,
                    static_cast<std::uint16_t>(idx));
    rec.store(shared_.sparse_addr(off + 2), 2);
    usc_write_field(shared_, off, DescField::kFlags, LanceDescriptor::kOwn);
    rec.store(shared_.sparse_addr(off + 0), 2);
  } else {
    // Copy discipline: 10 bytes in, modify densely, 10 bytes out.
    LanceDescriptor d = desc_copy_in(shared_, off);
    for (std::size_t i = 0; i < kDescStride; i += 2) {
      rec.load(shared_.sparse_addr(off + i), 2);
    }
    d.length = len;
    d.buffer = static_cast<std::uint16_t>(idx);
    d.flags = LanceDescriptor::kOwn;
    desc_copy_out(shared_, off, d);
    for (std::size_t i = 0; i < kDescStride; i += 2) {
      rec.store(shared_.sparse_addr(off + i), 2);
    }
  }
}

void Lance::complete_tx_descriptor(std::size_t idx) {
  auto& rec = ctx_.rec;
  const std::size_t off = idx * kDescStride;
  if (ctx_.config.usc_sparse_descriptors) {
    usc_write_field(shared_, off, DescField::kFlags, 0);
    rec.store(shared_.sparse_addr(off + 0), 2);
    usc_write_field(shared_, off, DescField::kStatus, 0x0001 /* done */);
    rec.store(shared_.sparse_addr(off + 6), 2);
  } else {
    LanceDescriptor d = desc_copy_in(shared_, off);
    for (std::size_t i = 0; i < kDescStride; i += 2) {
      rec.load(shared_.sparse_addr(off + i), 2);
    }
    d.flags = 0;
    d.status = 0x0001;
    desc_copy_out(shared_, off, d);
    for (std::size_t i = 0; i < kDescStride; i += 2) {
      rec.store(shared_.sparse_addr(off + i), 2);
    }
  }
}

std::uint16_t Lance::read_rx_status(std::size_t idx) {
  auto& rec = ctx_.rec;
  const std::size_t off = rx_ring_base() + idx * kDescStride;
  if (ctx_.config.usc_sparse_descriptors) {
    rec.load(shared_.sparse_addr(off + 0), 2);
    return usc_read_field(shared_, off, DescField::kFlags);
  }
  for (std::size_t i = 0; i < kDescStride; i += 2) {
    rec.load(shared_.sparse_addr(off + i), 2);
  }
  return desc_copy_in(shared_, off).flags;
}

void Lance::giveback_rx_descriptor(std::size_t idx) {
  auto& rec = ctx_.rec;
  const std::size_t off = rx_ring_base() + idx * kDescStride;
  if (ctx_.config.usc_sparse_descriptors) {
    usc_write_field(shared_, off, DescField::kFlags, LanceDescriptor::kOwn);
    rec.store(shared_.sparse_addr(off + 0), 2);
  } else {
    LanceDescriptor d = desc_copy_in(shared_, off);
    for (std::size_t i = 0; i < kDescStride; i += 2) {
      rec.load(shared_.sparse_addr(off + i), 2);
    }
    d.flags = LanceDescriptor::kOwn;
    desc_copy_out(shared_, off, d);
    for (std::size_t i = 0; i < kDescStride; i += 2) {
      rec.store(shared_.sparse_addr(off + i), 2);
    }
  }
}

void Lance::send(xk::Message& m) {
  auto& rec = ctx_.rec;
  code::TracedCall tc(rec, fn_send_);

  rec.block(fn_send_, blk::kLanceSendGetDesc);
  const std::size_t idx = tx_next_;
  tx_next_ = (tx_next_ + 1) % kRingSize;

  if (m.length() > kMaxFrame) {
    rec.block(fn_send_, blk::kLanceSendRingFull);
    return;  // oversized frame: dropped (counted as an error path)
  }
  tx_frame_.assign(m.view().begin(), m.view().end());
  if (tx_frame_.size() < kMinFrame) tx_frame_.resize(kMinFrame, 0);
  touch_buffer(rec, m.sim_addr(), m.length(), /*write=*/false);

  rec.block(fn_send_, blk::kLanceSendSetup);
  update_tx_descriptor(idx, static_cast<std::uint16_t>(tx_frame_.size()));

  rec.block(fn_send_, blk::kLanceSendKick);
  ++tx_frames_;
  transmit_(tx_frame_);

  // "Transmission complete" handling (the paper measures 105 us between
  // handing a frame to the chip and this interrupt; the World models that
  // delay — here we do the descriptor bookkeeping it causes).
  rec.block(fn_send_, blk::kLanceSendComplete);
  complete_tx_descriptor(idx);
}

void Lance::rx_frame(std::span<const std::uint8_t> frame) {
  auto& rec = ctx_.rec;
  code::TracedCall tc(rec, fn_intr_);

  rec.block(fn_intr_, blk::kLanceIntrStatus);
  const std::size_t idx = rx_next_;
  rx_next_ = (rx_next_ + 1) % kRingSize;
  (void)read_rx_status(idx);

  if (frame.size() > kMaxFrame || pool_.available() == 0) {
    rec.block(fn_intr_, blk::kLanceIntrRxErr);
    ++rx_dropped_;
    giveback_rx_descriptor(idx);
    return;
  }

  rec.block(fn_intr_, blk::kLanceIntrGetBuf);
  xk::Message m = [&] {
    code::TracedCall tg(rec, fn_pool_get_);
    rec.block(fn_pool_get_, blk::kPoolGetMain);
    return pool_.acquire();
  }();

  // Copy the frame out of the chip buffer into the message.
  m.trim_back(m.length() - frame.size());
  std::copy(frame.begin(), frame.end(), m.data());
  touch_buffer(rec, m.sim_addr(), frame.size(), /*write=*/true);
  ++rx_frames_;

  rec.block(fn_intr_, blk::kLanceIntrDeliver);
  if (upper_ != nullptr) upper_->demux(m);

  rec.block(fn_intr_, blk::kLanceIntrGiveBack);
  giveback_rx_descriptor(idx);

  // Refresh the message and return it to the pool (Section 2.2.2).
  {
    code::TracedCall tr(rec, fn_refresh_);
    rec.block(fn_refresh_, blk::kRefreshCheck);
    const bool shortcut = ctx_.config.msg_refresh_shortcut;
    if (shortcut && m.refcount() == 1) {
      rec.block(fn_refresh_, blk::kRefreshShortcut);
    } else {
      rec.block(fn_refresh_, blk::kRefreshDestroy);
      {
        code::TracedCall tf(rec, fn_free_);
        rec.block(fn_free_, blk::kFreeMain);
      }
      rec.block(fn_refresh_, blk::kRefreshConstruct);
      {
        code::TracedCall tm(rec, fn_malloc_);
        rec.block(fn_malloc_, blk::kMallocFreelist);
      }
    }
    pool_.release(std::move(m), shortcut);
  }
  {
    code::TracedCall tp(rec, fn_pool_put_);
    rec.block(fn_pool_put_, blk::kPoolPutMain);
  }
}

}  // namespace l96::proto
