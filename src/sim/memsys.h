// The DEC 3000/600 memory hierarchy: split 8 KB direct-mapped primary
// i- and d-caches (32-byte blocks), a 4-deep write-merging write buffer on
// the store path, a unified 2 MB direct-mapped write-back b-cache, and DRAM.
//
// The d-cache is write-through and allocates on read misses only; the
// b-cache is write-back and allocates on either miss type — exactly the
// configuration described in Section 4.1 of the paper.
//
// Latency accounting is intentionally simple and documented: a primary-cache
// miss that hits the b-cache stalls the CPU for `b_hit_cycles` (the paper
// states "a b-cache access takes 10 cycles"); a b-cache miss stalls for
// `dram_cycles`.  Stores stall only when the write buffer is forced to
// retire an entry.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/cache.h"
#include "sim/miss_profiler.h"
#include "sim/write_buffer.h"

namespace l96::sim {

/// Stall-cycle totals attributable to the memory system, split by source.
struct MemStallStats {
  std::uint64_t ifetch_stall_cycles = 0;
  std::uint64_t load_stall_cycles = 0;
  std::uint64_t store_stall_cycles = 0;

  std::uint64_t total() const noexcept {
    return ifetch_stall_cycles + load_stall_cycles + store_stall_cycles;
  }
  void reset() noexcept { *this = MemStallStats{}; }
};

/// b-cache accesses split by source (Table 8 computes the share of the
/// b-cache traffic reduction attributable to the i-cache).
struct BcacheTraffic {
  std::uint64_t from_ifetch = 0;  ///< i-cache misses + fetch-ahead
  std::uint64_t from_data = 0;    ///< d-cache read misses
  std::uint64_t from_writes = 0;  ///< write-buffer retirements

  std::uint64_t total() const noexcept {
    return from_ifetch + from_data + from_writes;
  }
  void reset() noexcept { *this = BcacheTraffic{}; }
};

class MemorySystem {
 public:
  struct Config {
    std::uint32_t icache_bytes = 8 * 1024;
    std::uint32_t dcache_bytes = 8 * 1024;
    std::uint32_t bcache_bytes = 2 * 1024 * 1024;
    std::uint32_t block_bytes = 32;
    std::uint32_t wbuf_depth = 4;
    /// Primary miss satisfied by the b-cache (paper: 10 cycles).
    std::uint32_t b_hit_cycles = 12;
    /// b-cache fill of the block sequentially following the previous
    /// i-miss: the stream of a straight-line path fills faster (page-mode
    /// access); rewards dense sequential layouts.
    std::uint32_t b_hit_seq_cycles = 4;
    /// Primary miss that also misses the b-cache and goes to DRAM.
    std::uint32_t dram_cycles = 26;
    /// Stall when the write buffer is full and must retire an entry.
    std::uint32_t wbuf_retire_cycles = 7;
    /// Fetch-ahead: an i-cache miss also prefetches the next sequential
    /// block into the i-cache (one extra b-cache access, overlapped with
    /// execution).  Matches the paper's note that one i-miss can produce
    /// two b-cache accesses.
    bool ifetch_prefetch_next = true;
  };

  MemorySystem() : MemorySystem(Config{}) {}
  explicit MemorySystem(const Config& cfg);

  /// Instruction fetch of the 4-byte instruction at `pc`.
  /// Returns stall cycles charged to this fetch.
  std::uint32_t ifetch(Addr pc);

  /// Data load of `size` bytes at `addr` (size only matters for block
  /// straddling, which the callers avoid; kept for completeness).
  std::uint32_t load(Addr addr);

  /// Data store at `addr`.
  std::uint32_t store(Addr addr);

  /// Retire all pending write-buffer entries.
  void drain_writes();

  /// Model the cache pollution caused by untraced code (interrupt handlers,
  /// context switch, idle loop) running between path invocations:
  /// invalidates a deterministic pseudo-random `fraction` of i- and d-cache
  /// lines.  The b-cache is untouched (the whole kernel fits in it).
  void scrub_primary(double fraction, std::uint64_t seed) {
    scrub_primary(fraction, fraction, seed);
  }
  /// As above, with independent i- and d-cache eviction fractions: the
  /// untraced code between activations is instruction-heavy (interrupt
  /// dispatch, idle loop) and evicts proportionally more i-cache lines
  /// than d-cache lines.
  void scrub_primary(double ifraction, double dfraction, std::uint64_t seed);

  /// Full cold restart: drop all cache state, residency history and
  /// statistics (the Table 6 cold-replay starting point).
  void reset_cold();
  /// Zero statistics but keep cache contents and the ever-seen history
  /// (post-warm-up measurement, Table 7): later misses on warmed blocks
  /// still classify as replacement misses.
  void reset_stats();

  /// Attach an attribution sink called on every i-/d-cache miss (nullptr
  /// detaches).  Not owned; the profiler must outlive the attachment.
  void attach_miss_profiler(MissProfiler* p) noexcept { profiler_ = p; }
  MissProfiler* miss_profiler() const noexcept { return profiler_; }

  const DirectMappedCache& icache() const noexcept { return *icache_; }
  const DirectMappedCache& dcache() const noexcept { return *dcache_; }
  const DirectMappedCache& bcache() const noexcept { return *bcache_; }
  const WriteBuffer& wbuf() const noexcept { return *wbuf_; }
  const MemStallStats& stalls() const noexcept { return stalls_; }
  const BcacheTraffic& bcache_traffic() const noexcept { return traffic_; }
  const Config& config() const noexcept { return cfg_; }

 private:
  std::uint32_t bcache_read_penalty(Addr addr);

  Config cfg_;
  std::unique_ptr<DirectMappedCache> icache_;
  std::unique_ptr<DirectMappedCache> dcache_;
  std::unique_ptr<DirectMappedCache> bcache_;
  std::unique_ptr<WriteBuffer> wbuf_;
  MemStallStats stalls_;
  BcacheTraffic traffic_;
  Addr last_imiss_block_ = 0;
  MissProfiler* profiler_ = nullptr;
};

}  // namespace l96::sim
