#include "sim/write_buffer.h"

#include <stdexcept>

namespace l96::sim {

WriteBuffer::WriteBuffer(Config cfg) : cfg_(cfg) {
  if (cfg_.depth == 0) {
    throw std::invalid_argument("write buffer depth must be at least 1");
  }
  ring_.resize(cfg_.depth);
}

WriteBuffer::StoreResult WriteBuffer::store(Addr addr) {
  ++stores_;
  const Addr block = block_of(addr);

  StoreResult r;
  if (holds(block)) {
    r.merged = true;
    ++merges_;
    return r;
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
  for_each([&out](Addr block) { out.push_back(block); });
  return out;
}

void WriteBuffer::save(Checkpoint& c) const {
  c.entries.clear();
  for_each([&c](Addr block) { c.entries.push_back(block); });
  c.stores = stores_;
  c.merges = merges_;
  c.allocations = allocations_;
  c.forced_retires = forced_retires_;
}

void WriteBuffer::reset() {
  head_ = size_ = 0;
  stores_ = merges_ = allocations_ = forced_retires_ = 0;
}

}  // namespace l96::sim
