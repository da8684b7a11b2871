#include "sim/memsys.h"

namespace l96::sim {

MemorySystem::MemorySystem(const Config& cfg) : cfg_(cfg) {
  icache_ = std::make_unique<DirectMappedCache>(DirectMappedCache::Config{
      .name = "i-cache",
      .size_bytes = cfg_.icache_bytes,
      .block_bytes = cfg_.block_bytes,
      .write_policy = WritePolicy::kWriteThrough,
  });
  dcache_ = std::make_unique<DirectMappedCache>(DirectMappedCache::Config{
      .name = "d-cache",
      .size_bytes = cfg_.dcache_bytes,
      .block_bytes = cfg_.block_bytes,
      .write_policy = WritePolicy::kWriteThrough,
  });
  bcache_ = std::make_unique<DirectMappedCache>(DirectMappedCache::Config{
      .name = "b-cache",
      .size_bytes = cfg_.bcache_bytes,
      .block_bytes = cfg_.block_bytes,
      .write_policy = WritePolicy::kWriteBack,
  });
  wbuf_ = std::make_unique<WriteBuffer>(
      WriteBuffer::Config{.depth = cfg_.wbuf_depth,
                          .block_bytes = cfg_.block_bytes},
      [this](Addr block) {
        bcache_->write(block);
        ++traffic_.from_writes;
      });
}

std::uint32_t MemorySystem::bcache_read_penalty(Addr addr) {
  const auto r = bcache_->read(addr);
  return r.hit ? cfg_.b_hit_cycles : cfg_.dram_cycles;
}

std::uint32_t MemorySystem::ifetch(Addr pc) {
  const auto r = icache_->read(pc);
  if (r.hit) {
    if (profiler_ != nullptr) {
      profiler_->on_hit(ProfiledCache::kICache, pc, icache_->block_of(pc));
    }
    return 0;
  }

  // Sequential fill: a miss on the block directly following the previously
  // missed block streams out of the b-cache faster (page-mode access) —
  // this is what dense sequential layouts buy.
  const Addr block = icache_->block_of(pc);
  const bool sequential =
      last_imiss_block_ != 0 && block == last_imiss_block_ + cfg_.block_bytes;
  last_imiss_block_ = block;

  const auto br = bcache_->read(pc);
  const std::uint32_t stall =
      br.hit ? (sequential ? cfg_.b_hit_seq_cycles : cfg_.b_hit_cycles)
             : cfg_.dram_cycles;
  ++traffic_.from_ifetch;
  if (cfg_.ifetch_prefetch_next) {
    // Fetch-ahead consumes b-cache bandwidth (the paper notes one i-cache
    // miss can produce two b-cache accesses) but does not allocate in the
    // i-cache; fetch-ahead past a gap is pure waste.
    const Addr next = block + cfg_.block_bytes;
    if (!icache_->contains(next)) {
      bcache_->probe(next);
      ++traffic_.from_ifetch;
    }
  }
  stalls_.ifetch_stall_cycles += stall;
  if (profiler_ != nullptr) {
    profiler_->on_miss(ProfiledCache::kICache, pc, block,
                       icache_->line_index(pc), r.replacement_miss, r.evicted,
                       r.evicted_block, stall);
  }
  return stall;
}

std::uint32_t MemorySystem::load(Addr addr) {
  const auto r = dcache_->read(addr);
  if (r.hit) {
    if (profiler_ != nullptr) {
      profiler_->on_hit(ProfiledCache::kDCache, addr, dcache_->block_of(addr));
    }
    return 0;
  }
  const std::uint32_t stall = bcache_read_penalty(addr);
  ++traffic_.from_data;
  stalls_.load_stall_cycles += stall;
  if (profiler_ != nullptr) {
    profiler_->on_miss(ProfiledCache::kDCache, addr, dcache_->block_of(addr),
                       dcache_->line_index(addr), r.replacement_miss,
                       r.evicted, r.evicted_block, stall);
  }
  return stall;
}

std::uint32_t MemorySystem::store(Addr addr) {
  // Write-through d-cache: a hit updates the data in place and a miss does
  // not allocate, so stores never change the d-cache tag state and are not
  // counted as d-cache accesses.  Every store is presented to the write
  // buffer; Table 6's combined d-cache/write-buffer column adds the two.
  const auto r = wbuf_->store(addr);
  const std::uint32_t stall = r.forced_retire ? cfg_.wbuf_retire_cycles : 0;
  stalls_.store_stall_cycles += stall;
  return stall;
}

void MemorySystem::drain_writes() { wbuf_->drain(); }

void MemorySystem::scrub_primary(double ifraction, double dfraction,
                                 std::uint64_t seed) {
  // xorshift64* for a cheap deterministic pseudo-random sequence.
  auto next = [&seed]() {
    seed ^= seed >> 12;
    seed ^= seed << 25;
    seed ^= seed >> 27;
    return seed * 0x2545F4914F6CDD1DULL;
  };
  auto threshold = [](double f) {
    return static_cast<std::uint64_t>(f * 9007199254740992.0);  // 2^53
  };
  if (ifraction >= 1.0) {
    icache_->flush();
  } else {
    const auto t = threshold(ifraction);
    for (std::uint32_t i = 0; i < icache_->num_lines(); ++i) {
      if ((next() >> 11) <= t) icache_->invalidate_line(i);
    }
  }
  if (dfraction >= 1.0) {
    dcache_->flush();
  } else {
    const auto t = threshold(dfraction);
    for (std::uint32_t i = 0; i < dcache_->num_lines(); ++i) {
      if ((next() >> 11) <= t) dcache_->invalidate_line(i);
    }
  }
}

void MemorySystem::reset_cold() {
  icache_->reset_cold();
  dcache_->reset_cold();
  bcache_->reset_cold();
  wbuf_->reset();
  stalls_.reset();
  traffic_.reset();
  last_imiss_block_ = 0;
}

MemorySystem::State MemorySystem::state() const {
  return State{.icache = icache_->state(),
               .dcache = dcache_->state(),
               .bcache = bcache_->state(),
               .last_imiss_block = last_imiss_block_,
               .wbuf = {wbuf_->entries().begin(), wbuf_->entries().end()}};
}

void MemorySystem::save(Checkpoint& c) const {
  icache_->save(c.icache);
  dcache_->save(c.dcache);
  bcache_->save(c.bcache);
  wbuf_->save(c.wbuf);
  c.stalls = stalls_;
  c.traffic = traffic_;
  c.last_imiss_block = last_imiss_block_;
}

void MemorySystem::restore(const Checkpoint& c) {
  icache_->restore(c.icache);
  dcache_->restore(c.dcache);
  bcache_->restore(c.bcache);
  wbuf_->restore(c.wbuf);
  stalls_ = c.stalls;
  traffic_ = c.traffic;
  last_imiss_block_ = c.last_imiss_block;
}

void MemorySystem::reset_stats() {
  icache_->reset_stats();
  dcache_->reset_stats();
  bcache_->reset_stats();
  wbuf_->reset_stats();
  stalls_.reset();
  traffic_.reset();
}

}  // namespace l96::sim
