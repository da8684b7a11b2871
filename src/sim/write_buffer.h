// Model of the 21064's 4-deep write-merging write buffer.
//
// The primary d-cache on the DEC 3000/600 is write-through, so every store
// is presented to the write buffer.  Each of the four entries holds one
// 32-byte cache block.  A store into a block already buffered merges into
// the existing entry (counted like a cache hit in the paper's Table 6); a
// store to a new block allocates an entry (counted as a miss, because it
// eventually produces a b-cache write).  When all entries are full the
// oldest is retired to the b-cache, stalling the CPU for the retire latency.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/cache.h"

namespace l96::sim {

class WriteBuffer {
 public:
  struct Config {
    std::uint32_t depth = 4;
    std::uint32_t block_bytes = 32;
  };

  /// Called when an entry retires; receives the block address.  The memory
  /// hierarchy uses this to issue the b-cache write.
  using RetireFn = std::function<void(Addr)>;

  explicit WriteBuffer(Config cfg, RetireFn retire)
      : cfg_(cfg), retire_(std::move(retire)) {}

  struct StoreResult {
    bool merged = false;        ///< store merged into an existing entry
    bool forced_retire = false; ///< buffer was full; oldest entry retired
  };

  /// Present a store to the buffer.
  StoreResult store(Addr addr);

  /// Retire every pending entry (e.g. at a memory barrier or end of trace).
  void drain();

  std::uint32_t pending() const noexcept {
    return static_cast<std::uint32_t>(entries_.size());
  }
  /// Buffered block addresses, oldest first.
  const std::deque<Addr>& entries() const noexcept { return entries_; }

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
  /// Return to the saved entries and counters; retires nothing.
  void restore(const Checkpoint& c);

 private:
  Addr block_of(Addr a) const noexcept {
    return a / cfg_.block_bytes * cfg_.block_bytes;
  }

  Config cfg_;
  RetireFn retire_;
  std::deque<Addr> entries_;  // FIFO of buffered block addresses
  std::uint64_t stores_ = 0;
  std::uint64_t merges_ = 0;
  std::uint64_t allocations_ = 0;
  std::uint64_t forced_retires_ = 0;
};

}  // namespace l96::sim
