#include "sim/memsys.h"

namespace l96::sim {

namespace {

/// Calls evict(i) for each of `lines` lines that a partial scrub of
/// `fraction` evicts, drawing from `seed` (xorshift64*, a cheap
/// deterministic pseudo-random sequence).  scrub_primary() and
/// price_logged_pass() both draw from here, so they evict alike.
template <typename Evict>
void scrub_lines(std::uint32_t lines, double fraction, std::uint64_t& seed,
                 Evict&& evict) {
  const auto threshold =
      static_cast<std::uint64_t>(fraction * 9007199254740992.0);  // 2^53
  for (std::uint32_t i = 0; i < lines; ++i) {
    seed ^= seed >> 12;
    seed ^= seed << 25;
    seed ^= seed >> 27;
    if ((seed * 0x2545F4914F6CDD1DULL >> 11) <= threshold) evict(i);
  }
}

}  // namespace

MemorySystem::MemorySystem(const Config& cfg)
    : cfg_(cfg),
      icache_(DirectMappedCache::Config{
          .name = "i-cache",
          .size_bytes = cfg.icache_bytes,
          .block_bytes = cfg.block_bytes,
          .write_policy = WritePolicy::kWriteThrough,
      }),
      dcache_(DirectMappedCache::Config{
          .name = "d-cache",
          .size_bytes = cfg.dcache_bytes,
          .block_bytes = cfg.block_bytes,
          .write_policy = WritePolicy::kWriteThrough,
      }),
      bcache_(DirectMappedCache::Config{
          .name = "b-cache",
          .size_bytes = cfg.bcache_bytes,
          .block_bytes = cfg.block_bytes,
          .write_policy = WritePolicy::kWriteBack,
      }),
      wbuf_(WriteBuffer::Config{.depth = cfg.wbuf_depth,
                                .block_bytes = cfg.block_bytes}) {}

std::uint32_t MemorySystem::bcache_read_penalty(Addr addr) {
  const auto r = bcache_.read(addr);
  return r.hit ? cfg_.b_hit_cycles : cfg_.dram_cycles;
}

std::uint32_t MemorySystem::ifetch(Addr pc) {
  const auto r = icache_.read(pc);
  if (r.hit) {
    if (profiler_ != nullptr) {
      profiler_->on_hit(ProfiledCache::kICache, pc, icache_.block_of(pc));
    }
    return 0;
  }

  // Sequential fill: a miss on the block directly following the previously
  // missed block streams out of the b-cache faster (page-mode access) —
  // this is what dense sequential layouts buy.
  const Addr block = icache_.block_of(pc);
  const bool sequential =
      imissed_ && block == last_imiss_block_ + cfg_.block_bytes;
  last_imiss_block_ = block;
  imissed_ = true;

  const auto br = bcache_.read(pc);
  const std::uint32_t stall =
      br.hit ? (sequential ? cfg_.b_hit_seq_cycles : cfg_.b_hit_cycles)
             : cfg_.dram_cycles;
  ++traffic_.from_ifetch;
  bool probed = false;
  if (cfg_.ifetch_prefetch_next) {
    // Fetch-ahead consumes b-cache bandwidth (the paper notes one i-cache
    // miss can produce two b-cache accesses) but does not allocate in the
    // i-cache; fetch-ahead past a gap is pure waste.
    const Addr next = block + cfg_.block_bytes;
    if (!icache_.contains(next)) {
      bcache_.probe(next);
      ++traffic_.from_ifetch;
      probed = true;
    }
  }
  stalls_.ifetch_stall_cycles += stall;
  if (profiler_ != nullptr) {
    profiler_->on_miss(ProfiledCache::kICache, pc, block,
                       icache_.line_index(pc), r.replacement_miss, r.evicted,
                       r.evicted_block, stall);
  }
  if (log_ != nullptr) {
    log_->imisses.push_back({pc, r.evicted_block, r.evicted, probed});
  }
  return stall;
}

std::uint32_t MemorySystem::load(Addr addr) {
  const auto r = dcache_.read(addr);
  if (r.hit) {
    if (profiler_ != nullptr) {
      profiler_->on_hit(ProfiledCache::kDCache, addr, dcache_.block_of(addr));
    }
    return 0;
  }
  const std::uint32_t stall = bcache_read_penalty(addr);
  ++traffic_.from_data;
  stalls_.load_stall_cycles += stall;
  if (profiler_ != nullptr) {
    profiler_->on_miss(ProfiledCache::kDCache, addr, dcache_.block_of(addr),
                       dcache_.line_index(addr), r.replacement_miss,
                       r.evicted, r.evicted_block, stall);
  }
  if (log_ != nullptr) {
    log_->dmisses.push_back({addr, r.evicted_block, r.evicted, false});
  }
  return stall;
}

std::uint32_t MemorySystem::store(Addr addr) {
  // Write-through d-cache: a hit updates the data in place and a miss does
  // not allocate, so stores never change the d-cache tag state and are not
  // counted as d-cache accesses.  Every store is presented to the write
  // buffer; Table 6's combined d-cache/write-buffer column adds the two.
  const auto r = wbuf_.store(addr);
  if (!r.forced_retire) return 0;
  write_back(r.retired);
  stalls_.store_stall_cycles += cfg_.wbuf_retire_cycles;
  return cfg_.wbuf_retire_cycles;
}

void MemorySystem::drain_writes() {
  wbuf_.drain([this](Addr block) { write_back(block); });
}

void MemorySystem::scrub_primary(double ifraction, double dfraction,
                                 std::uint64_t seed) {
  if (ifraction >= 1.0) {
    icache_.flush();
  } else {
    scrub_lines(icache_.num_lines(), ifraction, seed,
                [this](std::uint32_t i) { icache_.invalidate_line(i); });
  }
  if (dfraction >= 1.0) {
    dcache_.flush();
  } else {
    scrub_lines(dcache_.num_lines(), dfraction, seed,
                [this](std::uint32_t i) { dcache_.invalidate_line(i); });
  }
}

void MemorySystem::mark_log(MissLog::Mark& m) const {
  m.imisses = log_->imisses.size();
  m.dmisses = log_->dmisses.size();
  m.fetches = icache_.stats().accesses;
  m.loads = dcache_.stats().accesses;
  wbuf_.save(m.wbuf);
}

MemorySystem::Counts MemorySystem::counts() const {
  return Counts{.icache = icache_.stats(),
                .dcache = dcache_.stats(),
                .bcache = bcache_.stats(),
                .stalls = stalls_,
                .traffic = traffic_,
                .stores = wbuf_.stores(),
                .store_allocations = wbuf_.allocations()};
}

bool MemorySystem::drain_would_evict() const {
  bool evicts = false;
  wbuf_.for_each([&](Addr block) {
    const std::uint32_t set = bcache_.line_index(block);
    const DirectMappedCache::LineState held = bcache_.line(set);
    evicts = evicts || (held.valid && held.block != block);
    wbuf_.for_each([&](Addr other) {
      evicts = evicts || (other != block && bcache_.line_index(other) == set);
    });
  });
  return evicts;
}

MemorySystem::Counts MemorySystem::price_logged_pass(
    const MissLog& log, const MissLog::Mark& upto, double dfraction,
    std::uint64_t seed, bool drain, MissProfiler* profiler) const {
  Counts c;
  // The i-cache restarts empty, so it misses, evicts and probes as the
  // logged pass did; every fill hits the b-cache, sequential or not, and a
  // probe hits when the drained state holds the block: the b-cache holds
  // it now or a buffered write will allocate it.  All misses are
  // replacement misses: the logged pass saw every block.
  Addr last_block = last_imiss_block_;
  bool imissed = imissed_;
  std::uint64_t probes = 0;
  for (std::size_t k = 0; k < upto.imisses; ++k) {
    const MissLog::Miss& m = log.imisses[k];
    const Addr block = icache_.block_of(m.addr);
    const bool sequential = imissed && block == last_block + cfg_.block_bytes;
    last_block = block;
    imissed = true;
    const std::uint32_t stall =
        sequential ? cfg_.b_hit_seq_cycles : cfg_.b_hit_cycles;
    c.stalls.ifetch_stall_cycles += stall;
    if (m.probed) {
      const Addr next = block + cfg_.block_bytes;
      ++probes;
      if (!bcache_.contains(next) && !wbuf_.holds(next)) {
        ++c.bcache.misses;
        if (bcache_.ever_held(next)) ++c.bcache.repl_misses;
      }
    }
    if (profiler != nullptr) {
      profiler->on_miss(ProfiledCache::kICache, m.addr, block,
                        icache_.line_index(m.addr), true, m.evicted, m.victim,
                        stall);
    }
  }
  c.icache = {.accesses = upto.fetches,
              .misses = upto.imisses,
              .repl_misses = upto.imisses};
  c.traffic.from_ifetch = upto.imisses + probes;

  // The d-cache allocates on loads only, so a load that follows another
  // into its set meets the line the logged pass met.  A miss that evicted
  // nothing in the logged (cold) pass is the first load into its set: it
  // meets the line held now, unless the scrub evicts it.
  std::vector<bool> scrubbed(dcache_.num_lines(), dfraction >= 1.0);
  if (dfraction < 1.0) {
    scrub_lines(dcache_.num_lines(), dfraction, seed,
                [&scrubbed](std::uint32_t i) { scrubbed[i] = true; });
  }
  std::uint64_t dmisses = 0;
  for (std::size_t k = 0; k < upto.dmisses; ++k) {
    const MissLog::Miss& m = log.dmisses[k];
    const Addr block = dcache_.block_of(m.addr);
    const std::uint32_t set = dcache_.line_index(m.addr);
    bool evicted = m.evicted;
    Addr victim = m.victim;
    if (!m.evicted) {
      const DirectMappedCache::LineState start =
          scrubbed[set] ? DirectMappedCache::LineState{} : dcache_.line(set);
      if (start.valid && start.block == block) continue;
      evicted = start.valid;
      victim = start.block;
    }
    ++dmisses;
    if (profiler != nullptr) {
      profiler->on_miss(ProfiledCache::kDCache, m.addr, block, set, true,
                        evicted, victim, cfg_.b_hit_cycles);
    }
  }
  c.dcache = {.accesses = upto.loads, .misses = dmisses, .repl_misses = dmisses};
  c.stalls.load_stall_cycles = dmisses * cfg_.b_hit_cycles;
  c.traffic.from_data = dmisses;

  // The write buffer restarts empty and sees the same stores; the blocks
  // it retires, forced or drained, are all in the b-cache.
  const std::uint64_t forced = upto.wbuf.forced_retires;
  const std::uint64_t drained = drain ? upto.wbuf.entries.size() : 0;
  c.stores = upto.wbuf.stores;
  c.store_allocations = upto.wbuf.allocations;
  c.stalls.store_stall_cycles = forced * cfg_.wbuf_retire_cycles;
  c.traffic.from_writes = forced + drained;
  c.bcache.accesses = upto.imisses + probes + dmisses + forced + drained;
  return c;
}

void MemorySystem::reset_cold() {
  icache_.reset_cold();
  dcache_.reset_cold();
  bcache_.reset_cold();
  wbuf_.reset();
  stalls_.reset();
  traffic_.reset();
  last_imiss_block_ = 0;
  imissed_ = false;
}

MemorySystem::State MemorySystem::state() const {
  return State{.icache = icache_.state(),
               .dcache = dcache_.state(),
               .bcache = bcache_.state(),
               .last_imiss_block = last_imiss_block_,
               .imissed = imissed_,
               .wbuf = wbuf_.entries()};
}

void MemorySystem::reset_stats() {
  icache_.reset_stats();
  dcache_.reset_stats();
  bcache_.reset_stats();
  wbuf_.reset_stats();
  stalls_.reset();
  traffic_.reset();
}

}  // namespace l96::sim
