#include "sim/write_buffer.h"

#include <algorithm>

namespace l96::sim {

WriteBuffer::StoreResult WriteBuffer::store(Addr addr) {
  ++stores_;
  const Addr block = block_of(addr);

  StoreResult r;
  if (std::find(entries_.begin(), entries_.end(), block) != entries_.end()) {
    r.merged = true;
    ++merges_;
    return r;
  }

  if (entries_.size() >= cfg_.depth) {
    const Addr oldest = entries_.front();
    entries_.pop_front();
    retire_(oldest);
    r.forced_retire = true;
    ++forced_retires_;
  }
  entries_.push_back(block);
  ++allocations_;
  return r;
}

void WriteBuffer::drain() {
  while (!entries_.empty()) {
    retire_(entries_.front());
    entries_.pop_front();
  }
}

void WriteBuffer::save(Checkpoint& c) const {
  c.entries.assign(entries_.begin(), entries_.end());
  c.stores = stores_;
  c.merges = merges_;
  c.allocations = allocations_;
  c.forced_retires = forced_retires_;
}

void WriteBuffer::restore(const Checkpoint& c) {
  entries_.assign(c.entries.begin(), c.entries.end());
  stores_ = c.stores;
  merges_ = c.merges;
  allocations_ = c.allocations;
  forced_retires_ = c.forced_retires;
}

void WriteBuffer::reset() {
  entries_.clear();
  stores_ = merges_ = allocations_ = forced_retires_ = 0;
}

}  // namespace l96::sim
