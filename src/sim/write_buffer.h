// Model of the 21064's 4-deep write-merging write buffer.
//
// The primary d-cache on the DEC 3000/600 is write-through, so every store
// is presented to the write buffer.  Each of the four entries holds one
// 32-byte cache block.  A store into a block already buffered merges into
// the existing entry (counted like a cache hit in the paper's Table 6); a
// store to a new block allocates an entry (counted as a miss, because it
// eventually produces a b-cache write).  When all entries are full the
// oldest is retired to the b-cache, stalling the CPU for the retire latency.
//
// The buffer only queues blocks: store() and drain() hand each retired
// block back to the caller, which issues the b-cache write.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/cache.h"

namespace l96::sim {

class WriteBuffer {
 public:
  struct Config {
    std::uint32_t depth = 4;
    std::uint32_t block_bytes = 32;
  };

  /// Throws std::invalid_argument when `cfg.depth` is 0: a buffer must
  /// hold the block a store allocates.
  explicit WriteBuffer(Config cfg);

  struct StoreResult {
    bool merged = false;        ///< store merged into an existing entry
    bool forced_retire = false; ///< buffer was full; oldest entry retired
    Addr retired = 0;           ///< the retired block, when forced_retire
  };

  /// Present a store to the buffer.
  StoreResult store(Addr addr);

  /// Retire every pending entry, oldest first, handing each block to
  /// `retire` (e.g. at a memory barrier or end of trace).
  template <typename Retire>
  void drain(Retire&& retire) {
    for_each(retire);
    head_ = size_ = 0;
  }

  /// Call `f` on each buffered block, oldest first.
  template <typename F>
  void for_each(F&& f) const {
    for (std::uint32_t i = 0; i < size_; ++i) f(ring_[slot(i)]);
  }
  /// True when the block-aligned address `block` is buffered.
  bool holds(Addr block) const noexcept {
    for (std::uint32_t i = 0; i < size_; ++i) {
      if (ring_[slot(i)] == block) return true;
    }
    return false;
  }

  std::uint32_t pending() const noexcept { return size_; }
  /// Buffered block addresses, oldest first.
  std::vector<Addr> entries() const;

  std::uint64_t stores() const noexcept { return stores_; }
  std::uint64_t merges() const noexcept { return merges_; }
  std::uint64_t allocations() const noexcept { return allocations_; }
  std::uint64_t forced_retires() const noexcept { return forced_retires_; }

  void reset();
  /// Zero the counters but keep buffered entries (warm-up then measure).
  void reset_stats() noexcept {
    stores_ = merges_ = allocations_ = forced_retires_ = 0;
  }

  /// The buffered entries and the counters, saved; reused by later saves.
  struct Checkpoint {
    std::vector<Addr> entries;
    std::uint64_t stores = 0, merges = 0, allocations = 0, forced_retires = 0;
  };
  void save(Checkpoint& c) const;

 private:
  Addr block_of(Addr a) const noexcept {
    return a / cfg_.block_bytes * cfg_.block_bytes;
  }
  /// The ring slot of the i-th oldest entry.
  std::uint32_t slot(std::uint32_t i) const noexcept {
    const std::uint32_t s = head_ + i;
    return s < cfg_.depth ? s : s - cfg_.depth;
  }

  Config cfg_;
  std::vector<Addr> ring_;  ///< `depth` slots; the FIFO starts at head_
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint64_t stores_ = 0;
  std::uint64_t merges_ = 0;
  std::uint64_t allocations_ = 0;
  std::uint64_t forced_retires_ = 0;
};

}  // namespace l96::sim
