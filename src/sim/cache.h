// Direct-mapped cache model for the DEC 3000/600 memory hierarchy.
//
// The 21064-based DEC 3000/600 uses direct-mapped caches exclusively: 8 KB
// split primary I- and D-caches and a 2 MB unified second-level "b-cache",
// all with 32-byte blocks.  This model reproduces that geometry and the
// paper's miss taxonomy: a miss on a block that was previously resident and
// has since been evicted is a *replacement* miss; every other miss is a
// *cold* miss.  Table 6 of the paper reports exactly (Miss, Acc, Repl).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace l96::sim {

using Addr = std::uint64_t;

/// Accumulated statistics for one cache level.
struct CacheStats {
  std::uint64_t accesses = 0;       ///< total lookups (reads + writes)
  std::uint64_t misses = 0;         ///< lookups that missed
  std::uint64_t repl_misses = 0;    ///< misses on previously-resident blocks
  std::uint64_t writebacks = 0;     ///< dirty blocks written back (write-back only)

  std::uint64_t hits() const noexcept { return accesses - misses; }
  std::uint64_t cold_misses() const noexcept { return misses - repl_misses; }
  void reset() noexcept { *this = CacheStats{}; }
};

/// Write policy of a cache level.
enum class WritePolicy {
  kWriteThrough,  ///< writes always propagate; allocate on read miss only
  kWriteBack,     ///< writes dirty the line; allocate on any miss
};

/// A direct-mapped cache with 32-byte blocks (geometry configurable).
///
/// The cache tracks only tags, not data: it is a timing/occupancy model.
/// `ever_seen_` records every block address that was resident at least once
/// so that misses can be classified as cold vs. replacement, matching the
/// paper's accounting.
///
/// Lines are validated by epoch: a line is resident only while its fill
/// epoch equals the cache's current one, so reset_cold() and flush() start a
/// new epoch in O(1) instead of walking every line (the 2 MB b-cache has
/// 65,536 of them).  The epoch is 63 bits wide and advances by one per
/// reset, so it cannot wrap.
class DirectMappedCache {
 private:
  /// Open-addressed set of block addresses (linear probing, power-of-two
  /// capacity, at most half full).  Block 0 is kept in a flag because 0
  /// marks an empty slot.
  class BlockSet {
   public:
    bool contains(Addr key) const noexcept;
    /// Insert `key`; false when it was already present.
    bool insert(Addr key);
    void clear() noexcept;
    /// The members in ascending order.
    std::vector<Addr> sorted() const;

   private:
    std::size_t slot(Addr key) const noexcept;
    void grow();

    std::vector<Addr> slots_ = std::vector<Addr>(64, 0);
    std::size_t size_ = 0;
    int shift_ = 58;  ///< 64 - log2(capacity)
    bool has_zero_ = false;
  };

 public:
  struct Config {
    std::string name = "cache";
    std::uint32_t size_bytes = 8 * 1024;
    std::uint32_t block_bytes = 32;
    WritePolicy write_policy = WritePolicy::kWriteThrough;
  };

  explicit DirectMappedCache(Config cfg);

  /// Result of a single lookup.
  struct AccessResult {
    bool hit = false;
    bool replacement_miss = false;  ///< miss on a block seen before
    bool writeback = false;         ///< eviction wrote back a dirty block
    bool evicted = false;           ///< allocation displaced a valid line
    Addr evicted_block = 0;         ///< block address displaced (if evicted)
  };

  /// Read access.  On miss the block is allocated (both policies).
  AccessResult read(Addr addr) {
    ++stats_.accesses;
    if (contains(addr)) return AccessResult{.hit = true};
    return miss(addr, /*is_write=*/false);
  }

  /// Write access.  Write-through: hit updates the line, miss does NOT
  /// allocate.  Write-back: miss allocates, line is dirtied either way.
  AccessResult write(Addr addr);

  /// Probe: count an access (and hit/miss) without changing cache state.
  /// Models traffic generated by fetch-ahead that does not allocate.
  bool probe(Addr addr);

  /// Count a read hit on a line the caller knows is resident, without
  /// looking it up (the replay's repeated fetches from one i-cache block).
  void count_hit() noexcept { ++stats_.accesses; }
  /// Add accesses whose outcomes the caller knows without a lookup (a pass
  /// priced from a miss log); they change no line.
  void count(const CacheStats& more) noexcept {
    stats_.accesses += more.accesses;
    stats_.misses += more.misses;
    stats_.repl_misses += more.repl_misses;
    stats_.writebacks += more.writebacks;
  }

  /// True if the block containing `addr` is currently resident.
  bool contains(Addr addr) const noexcept {
    const Line& line = lines_[line_index(addr)];
    return line.epoch == epoch_ && line.block == block_of(addr);
  }
  /// True if the block containing `addr` was resident at some point since
  /// the last reset_cold(): a miss on it now is a replacement miss.
  bool ever_held(Addr addr) const noexcept {
    return ever_seen_.contains(block_of(addr));
  }

  /// Invalidate a specific line index.  Used to model evictions caused by
  /// untraced code between path invocations.
  void invalidate_line(std::uint32_t index) noexcept;

  /// Full cold restart: drop all lines, forget the ever-seen history, zero
  /// the statistics.  This is the state the Table 6 cold replay starts
  /// from — every first touch afterwards classifies as a cold miss.
  void reset_cold();

  /// Drop all lines but keep the ever-seen history (so subsequent misses
  /// still count as replacement misses).  Models a context switch flushing
  /// the cache without restarting the experiment.
  void flush() noexcept { ++epoch_; }

  const CacheStats& stats() const noexcept { return stats_; }

  /// Allocations since the last reset_cold() that displaced a resident
  /// line.  Kept out of CacheStats: reset_stats() leaves it, so it covers
  /// every replay since the cold restart (Machine's warm-up reads it).
  std::uint64_t evictions_since_cold() const noexcept { return evictions_; }

  /// One line as the model sees it: an invalid line reports block 0 and
  /// clean, whatever its stale tag holds.
  struct LineState {
    bool valid = false;
    Addr block = 0;
    bool dirty = false;
    bool operator==(const LineState&) const = default;
  };
  /// Line `index` as the model sees it.
  LineState line(std::uint32_t index) const noexcept {
    const Line& l = lines_[index];
    return l.epoch == epoch_ ? LineState{true, l.block, l.dirty != 0}
                             : LineState{};
  }
  /// Everything of this cache a later access can observe: each line's
  /// residency and the sorted ever-seen history.  O(lines); for tests.
  struct State {
    std::vector<LineState> lines;
    std::vector<Addr> ever_seen;
    bool operator==(const State&) const = default;
  };
  State state() const;

  /// Zero the statistics ONLY: residency and the ever-seen history are
  /// kept, so post-warm-up misses still classify as replacement misses.
  /// This is what the Table 7 steady replay does between its warm-up
  /// passes and the measured pass; benches that want a genuinely cold
  /// cache must call reset_cold() instead.
  void reset_stats() noexcept { stats_.reset(); }

  std::uint32_t num_lines() const noexcept { return num_lines_; }
  std::uint32_t block_bytes() const noexcept { return cfg_.block_bytes; }
  std::uint32_t size_bytes() const noexcept { return cfg_.size_bytes; }
  const std::string& name() const noexcept { return cfg_.name; }

  /// Line index a given address maps to (exposed for layout tooling).
  std::uint32_t line_index(Addr addr) const noexcept {
    return static_cast<std::uint32_t>(addr >> block_shift_) & (num_lines_ - 1);
  }
  /// Block-aligned address.
  Addr block_of(Addr addr) const noexcept {
    return addr & ~Addr{cfg_.block_bytes - 1};
  }

 private:
  struct Line {
    Addr block = 0;
    std::uint64_t epoch : 63 = 0;  ///< fill epoch; 0 is never current
    std::uint64_t dirty : 1 = 0;
  };

  /// Count a miss on `addr` and allocate per the write policy.
  AccessResult miss(Addr addr, bool is_write);

  Config cfg_;
  std::uint32_t num_lines_;
  int block_shift_;
  std::uint64_t epoch_ = 1;
  std::uint64_t evictions_ = 0;
  std::vector<Line> lines_;
  BlockSet ever_seen_;
  CacheStats stats_;
};

}  // namespace l96::sim
