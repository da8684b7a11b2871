// The x-kernel message tool.
//
// Messages carry packet data through the protocol graph.  Each message is a
// view (offset, length) onto a reference-counted buffer with headroom, so
// push() (prepend a header on the way down) and pop() (strip a header on
// the way up) are O(header) and never copy the payload.  clone() shares the
// buffer; split()/join() support BLAST fragmentation and reassembly.  A
// buffer is a SimAlloc chunk (xk::HostChunk): the last reference returns
// it to its arena, which reuses the host storage for the next message.
//
// refresh() reproduces the Section-2.2.2 optimization: a message buffer
// being returned to an interrupt pool would normally be destroyed (free)
// and re-created (malloc); when the message is the buffer's sole owner —
// the common case once protocol processing has consumed the packet — the
// buffer can simply be reused.  Both behaviours are implemented; the
// StackConfig selects which one runs and the pool counts how often the
// short-circuit fires.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "xkernel/simalloc.h"

namespace l96::xk {

class Message {
 public:
  /// An empty message with no buffer.
  Message() = default;

  /// A fresh message: buffer of `headroom + datalen` bytes, data view
  /// starting after the headroom (zero-filled).
  Message(SimAlloc& arena, std::size_t headroom, std::size_t datalen);

  Message(const Message& o) noexcept
      : buf_(o.buf_), off_(o.off_), len_(o.len_) {
    if (buf_ != nullptr) ++buf_->refs;
  }
  Message(Message&& o) noexcept
      : buf_(o.buf_), off_(o.off_), len_(o.len_) {
    o.buf_ = nullptr;
  }
  Message& operator=(const Message& o) noexcept {
    if (o.buf_ != nullptr) ++o.buf_->refs;
    unref(buf_);
    buf_ = o.buf_;
    off_ = o.off_;
    len_ = o.len_;
    return *this;
  }
  Message& operator=(Message&& o) noexcept {
    if (this != &o) {
      HostChunk* old = buf_;
      buf_ = o.buf_;
      off_ = o.off_;
      len_ = o.len_;
      o.buf_ = nullptr;
      unref(old);
    }
    return *this;
  }
  ~Message() { unref(buf_); }

  // --- header operations -------------------------------------------------
  /// Prepend `hdr`; throws std::length_error when headroom is exhausted
  /// (protocol stacks size their headroom for the worst-case header stack).
  void push(std::span<const std::uint8_t> hdr);
  /// Strip the first `out.size()` bytes into `out`; throws on underflow.
  void pop(std::span<std::uint8_t> out);
  /// Copy bytes [at, at+out.size()) without consuming them.
  void peek(std::span<std::uint8_t> out, std::size_t at = 0) const;

  // --- payload operations -----------------------------------------------
  /// Append bytes at the tail (requires tailroom).
  void append(std::span<const std::uint8_t> data);
  /// Drop bytes from the front / back of the view.
  void trim_front(std::size_t n);
  void trim_back(std::size_t n);

  std::size_t length() const noexcept { return len_; }
  bool empty() const noexcept { return len_ == 0; }
  const std::uint8_t* data() const;
  std::uint8_t* data();
  std::span<const std::uint8_t> view() const;

  // --- sharing -------------------------------------------------------------
  /// Share the buffer (reference count increases).
  Message clone() const { return *this; }
  /// Keep [0, offset) in this message; return [offset, length) as a new
  /// message sharing the same buffer.
  Message split(std::size_t offset);
  /// Concatenate two messages into a fresh buffer (used by reassembly).
  static Message join(SimAlloc& arena, const Message& a, const Message& b);

  long refcount() const noexcept { return buf_ != nullptr ? buf_->refs : 0; }

  /// Simulated address of the first data byte (for d-cache tracing).
  SimAddr sim_addr() const;
  /// Simulated address of byte `i` of the view.
  SimAddr sim_addr_at(std::size_t i) const;

  /// Re-arm this message as a fresh `headroom + datalen` buffer.
  /// With `shortcut` and a sole-owner buffer of sufficient capacity the
  /// buffer is reused in place (no allocator traffic); otherwise the buffer
  /// is released and a new one allocated.  Returns true when the shortcut
  /// path was taken.
  bool refresh(SimAlloc& arena, std::size_t headroom, std::size_t datalen,
               bool shortcut);

 private:
  /// Drop one reference; the last one returns the chunk to its arena.
  static void unref(HostChunk* b) noexcept {
    if (b != nullptr && --b->refs == 0) b->owner->release_chunk(b);
  }

  HostChunk* buf_ = nullptr;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

/// Pool of pre-allocated messages for interrupt handlers (the LANCE driver
/// takes one per incoming frame and refreshes it after protocol processing).
class MsgPool {
 public:
  MsgPool(SimAlloc& arena, std::size_t count, std::size_t headroom,
          std::size_t datalen);

  Message acquire();
  /// Refresh `m` (per `shortcut`) and return it to the pool.
  void release(Message m, bool shortcut);

  std::size_t available() const noexcept { return pool_.size(); }
  std::uint64_t shortcut_hits() const noexcept { return shortcut_hits_; }
  std::uint64_t slow_refreshes() const noexcept { return slow_refreshes_; }

 private:
  SimAlloc& arena_;
  std::size_t headroom_;
  std::size_t datalen_;
  std::vector<Message> pool_;
  std::uint64_t shortcut_hits_ = 0;
  std::uint64_t slow_refreshes_ = 0;
};

}  // namespace l96::xk
