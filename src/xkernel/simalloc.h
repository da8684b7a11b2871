// Deterministic simulated-address allocator.
//
// Protocol data structures (TCBs, message buffers, map entries, stacks,
// LANCE descriptor rings) are real C++ objects, but the d-cache model needs
// stable, reproducible addresses: two runs of the same workload must touch
// the same simulated cache sets.  SimAlloc hands out addresses from a
// dedicated arena (0x8000'0000 upward — disjoint from all code regions but
// contending for the same cache sets, as on the real machine).
//
// A simple size-segregated free list emulates malloc reuse, which matters
// for the message-refresh experiment: with the Section-2.2.2 shortcut the
// buffer's address (and hence its cache footprint) is reused outright; with
// free()+malloc() the allocator walks its free list.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

namespace l96::xk {

using SimAddr = std::uint64_t;

class SimAlloc;

/// A simulated chunk together with the host bytes behind it: what a
/// message buffer (xkernel/message.h) is made of.  Its users count their
/// references and hand it back with SimAlloc::release_chunk().
struct HostChunk {
  std::vector<std::uint8_t> bytes;  ///< contents; size() is the chunk size
  SimAddr sim = 0;
  long refs = 0;
  SimAlloc* owner = nullptr;
};

class SimAlloc {
 public:
  // Offset 1 MiB within the 2 MiB b-cache period so protocol data does not
  // alias the hot code segment in the unified b-cache.
  static constexpr SimAddr kArenaBase = 0x8010'0000;
  /// Released chunks whose host storage the arena keeps for reuse.
  static constexpr std::size_t kSpareChunks = 16;

  explicit SimAlloc(SimAddr base = kArenaBase) : cursor_(base), base_(base) {
    spare_chunks_.reserve(kSpareChunks);
  }

  /// Allocate `bytes` with the given alignment; reuses a freed chunk of the
  /// same rounded size when available (LIFO, like a size-class allocator).
  SimAddr alloc(std::uint64_t bytes, std::uint64_t align = 8);

  /// Return a chunk to the allocator.
  void free(SimAddr addr, std::uint64_t bytes);

  /// A zero-filled chunk of `bytes` at alloc(bytes), holding one
  /// reference.  Its host storage is a released chunk's when one is spare,
  /// so a steady packet exchange allocates no host memory; the simulated
  /// address sequence is exactly alloc()'s.
  HostChunk* acquire_chunk(std::uint64_t bytes);
  /// free() the chunk's simulated range and keep its host storage for the
  /// next acquire_chunk() (beyond kSpareChunks it is deleted).
  void release_chunk(HostChunk* chunk);

  /// Total bytes ever carved from the arena (monotone).
  std::uint64_t high_water() const noexcept { return cursor_ - base_; }

  std::uint64_t live_bytes() const noexcept { return live_bytes_; }
  std::uint64_t alloc_count() const noexcept { return alloc_count_; }
  std::uint64_t free_count() const noexcept { return free_count_; }

 private:
  static std::uint64_t size_class(std::uint64_t bytes) {
    // round to 16-byte granules
    return (bytes + 15) / 16 * 16;
  }

  SimAddr cursor_;
  SimAddr base_;
  std::map<std::uint64_t, std::vector<SimAddr>> free_lists_;
  std::vector<std::unique_ptr<HostChunk>> spare_chunks_;
  std::uint64_t live_bytes_ = 0;
  std::uint64_t alloc_count_ = 0;
  std::uint64_t free_count_ = 0;
};

}  // namespace l96::xk
