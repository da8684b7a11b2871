#include "sim/write_buffer.h"

namespace l96::sim {

WriteBuffer::StoreResult WriteBuffer::store(Addr addr) {
  ++stores_;
  const Addr block = block_of(addr);

  StoreResult r;
  for (std::uint32_t i = 0; i < size_; ++i) {
    if (ring_[slot(i)] == block) {
      r.merged = true;
      ++merges_;
      return r;
    }
  }

  if (size_ >= cfg_.depth) {
    r.retired = ring_[head_];
    head_ = slot(1);
    --size_;
    r.forced_retire = true;
    ++forced_retires_;
  }
  ring_[slot(size_++)] = block;
  ++allocations_;
  return r;
}

std::vector<Addr> WriteBuffer::entries() const {
  std::vector<Addr> out;
  out.reserve(size_);
  for (std::uint32_t i = 0; i < size_; ++i) out.push_back(ring_[slot(i)]);
  return out;
}

void WriteBuffer::save(Checkpoint& c) const {
  c.entries.clear();
  for (std::uint32_t i = 0; i < size_; ++i) {
    c.entries.push_back(ring_[slot(i)]);
  }
  c.stores = stores_;
  c.merges = merges_;
  c.allocations = allocations_;
  c.forced_retires = forced_retires_;
}

void WriteBuffer::restore(const Checkpoint& c) {
  head_ = 0;
  size_ = 0;
  for (const Addr block : c.entries) ring_[slot(size_++)] = block;
  stores_ = c.stores;
  merges_ = c.merges;
  allocations_ = c.allocations;
  forced_retires_ = c.forced_retires;
}

void WriteBuffer::reset() {
  head_ = size_ = 0;
  stores_ = merges_ = allocations_ = forced_retires_ = 0;
}

}  // namespace l96::sim
