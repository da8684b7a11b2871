#include "xkernel/message.h"

#include <algorithm>
#include <cstring>

namespace l96::xk {

Message::Message(SimAlloc& arena, std::size_t headroom, std::size_t datalen)
    : buf_(arena.acquire_chunk(headroom + datalen)),
      off_(headroom),
      len_(datalen) {}

const std::uint8_t* Message::data() const {
  if (!buf_) throw std::logic_error("empty message has no data");
  return buf_->bytes.data() + off_;
}

std::uint8_t* Message::data() {
  if (!buf_) throw std::logic_error("empty message has no data");
  return buf_->bytes.data() + off_;
}

std::span<const std::uint8_t> Message::view() const {
  return {data(), len_};
}

void Message::push(std::span<const std::uint8_t> hdr) {
  if (!buf_) throw std::logic_error("push on empty message");
  if (hdr.size() > off_) throw std::length_error("message headroom exhausted");
  off_ -= hdr.size();
  len_ += hdr.size();
  std::memcpy(buf_->bytes.data() + off_, hdr.data(), hdr.size());
}

void Message::pop(std::span<std::uint8_t> out) {
  if (out.size() > len_) throw std::length_error("message pop underflow");
  std::memcpy(out.data(), data(), out.size());
  off_ += out.size();
  len_ -= out.size();
}

void Message::peek(std::span<std::uint8_t> out, std::size_t at) const {
  if (at + out.size() > len_) throw std::length_error("message peek overflow");
  std::memcpy(out.data(), data() + at, out.size());
}

void Message::append(std::span<const std::uint8_t> bytes) {
  if (!buf_) throw std::logic_error("append on empty message");
  if (off_ + len_ + bytes.size() > buf_->bytes.size()) {
    throw std::length_error("message tailroom exhausted");
  }
  std::memcpy(buf_->bytes.data() + off_ + len_, bytes.data(), bytes.size());
  len_ += bytes.size();
}

void Message::trim_front(std::size_t n) {
  if (n > len_) throw std::length_error("trim_front underflow");
  off_ += n;
  len_ -= n;
}

void Message::trim_back(std::size_t n) {
  if (n > len_) throw std::length_error("trim_back underflow");
  len_ -= n;
}

Message Message::split(std::size_t offset) {
  if (offset > len_) throw std::length_error("split past end");
  Message tail = *this;  // shares buf_
  tail.off_ = off_ + offset;
  tail.len_ = len_ - offset;
  len_ = offset;
  return tail;
}

Message Message::join(SimAlloc& arena, const Message& a, const Message& b) {
  Message m(arena, 0, a.length() + b.length());
  if (a.length() > 0) std::memcpy(m.data(), a.data(), a.length());
  if (b.length() > 0) std::memcpy(m.data() + a.length(), b.data(), b.length());
  return m;
}

SimAddr Message::sim_addr() const {
  if (!buf_) throw std::logic_error("empty message has no address");
  return buf_->sim + off_;
}

SimAddr Message::sim_addr_at(std::size_t i) const {
  if (i >= len_ && !(i == 0 && len_ == 0)) {
    throw std::out_of_range("sim_addr_at past end");
  }
  return sim_addr() + i;
}

bool Message::refresh(SimAlloc& arena, std::size_t headroom,
                      std::size_t datalen, bool shortcut) {
  const std::size_t capacity = headroom + datalen;
  if (shortcut && buf_ != nullptr && buf_->refs == 1 &&
      buf_->bytes.size() >= capacity) {
    // Sole owner: reuse the buffer in place — no free(), no malloc().
    off_ = headroom;
    len_ = datalen;
    return true;
  }
  // The new buffer is allocated before the old one is freed.
  HostChunk* fresh = arena.acquire_chunk(capacity);
  unref(buf_);
  buf_ = fresh;
  off_ = headroom;
  len_ = datalen;
  return false;
}

MsgPool::MsgPool(SimAlloc& arena, std::size_t count, std::size_t headroom,
                 std::size_t datalen)
    : arena_(arena), headroom_(headroom), datalen_(datalen) {
  pool_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pool_.emplace_back(arena_, headroom_, datalen_);
  }
}

Message MsgPool::acquire() {
  if (pool_.empty()) throw std::runtime_error("message pool exhausted");
  Message m = std::move(pool_.back());
  pool_.pop_back();
  return m;
}

void MsgPool::release(Message m, bool shortcut) {
  if (m.refresh(arena_, headroom_, datalen_, shortcut)) {
    ++shortcut_hits_;
  } else {
    ++slow_refreshes_;
  }
  pool_.push_back(std::move(m));
}

}  // namespace l96::xk
