#include "sim/cache.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace l96::sim {

namespace {
bool is_pow2(std::uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

DirectMappedCache::DirectMappedCache(Config cfg) : cfg_(std::move(cfg)) {
  if (!is_pow2(cfg_.size_bytes) || !is_pow2(cfg_.block_bytes) ||
      cfg_.block_bytes == 0 || cfg_.size_bytes < cfg_.block_bytes) {
    throw std::invalid_argument("cache geometry must be power-of-two sized");
  }
  num_lines_ = cfg_.size_bytes / cfg_.block_bytes;
  block_shift_ = std::countr_zero(cfg_.block_bytes);
  lines_.resize(num_lines_);
}

DirectMappedCache::AccessResult DirectMappedCache::write(Addr addr) {
  ++stats_.accesses;
  Line& line = lines_[line_index(addr)];
  if (line.epoch == epoch_ && line.block == block_of(addr)) {
    // Write-through: the write also propagates downstream; the caller
    // (memory hierarchy) models that traffic via the write buffer.
    if (cfg_.write_policy == WritePolicy::kWriteBack) line.dirty = 1;
    return AccessResult{.hit = true};
  }
  return miss(addr, /*is_write=*/true);
}

DirectMappedCache::AccessResult DirectMappedCache::miss(Addr addr,
                                                        bool is_write) {
  ++stats_.misses;
  const Addr block = block_of(addr);
  Line& line = lines_[line_index(addr)];
  AccessResult r;
  const bool allocate =
      !is_write || cfg_.write_policy == WritePolicy::kWriteBack;
  if (allocate) {
    r.replacement_miss = !ever_seen_.insert(block);
    if (line.epoch == epoch_) {
      ++evictions_;
      r.evicted = true;
      r.evicted_block = line.block;
      if (line.dirty) {
        r.writeback = true;
        ++stats_.writebacks;
      }
    } else if (fills_.size() < num_lines_) {
      fills_.push_back(line_index(addr));
    } else {
      fills_overflowed_ = true;
    }
    line.block = block;
    line.epoch = epoch_;
    line.dirty = is_write ? 1 : 0;
  } else {
    // Write-through no-allocate: the block still "passed through" the level;
    // it does not become resident, and per the paper's accounting a later
    // read miss on it is a cold miss, so do not record it in ever_seen_.
    r.replacement_miss = ever_seen_.contains(block);
  }
  if (r.replacement_miss) ++stats_.repl_misses;
  return r;
}

bool DirectMappedCache::probe(Addr addr) {
  ++stats_.accesses;
  if (contains(addr)) return true;
  ++stats_.misses;
  if (ever_seen_.contains(block_of(addr))) ++stats_.repl_misses;
  return false;
}

void DirectMappedCache::invalidate_line(std::uint32_t index) noexcept {
  assert(index < num_lines_);
  lines_[index].epoch = 0;
}

void DirectMappedCache::reset_cold() {
  new_epoch();
  evictions_ = 0;
  ever_seen_.clear();
  stats_.reset();
}

DirectMappedCache::State DirectMappedCache::state() const {
  State s;
  s.lines.reserve(lines_.size());
  for (const Line& line : lines_) {
    s.lines.push_back(line.epoch == epoch_
                          ? LineState{true, line.block, line.dirty != 0}
                          : LineState{});
  }
  s.ever_seen = ever_seen_.sorted();
  return s;
}

void DirectMappedCache::save(Checkpoint& c) const {
  c.lines.clear();
  auto keep = [&](std::uint32_t index) {
    const Line& line = lines_[index];
    if (line.epoch == epoch_) {
      c.lines.push_back({index, line.block, line.dirty != 0});
    }
  };
  if (fills_overflowed_) {
    for (std::uint32_t i = 0; i < num_lines_; ++i) keep(i);
  } else {
    for (const std::uint32_t i : fills_) keep(i);
  }
  c.ever_seen = ever_seen_;
  c.stats = stats_;
  c.evictions = evictions_;
}

void DirectMappedCache::restore(const Checkpoint& c) {
  new_epoch();
  for (const Checkpoint::SavedLine& s : c.lines) {
    Line& line = lines_[s.index];
    line.block = s.block;
    line.epoch = epoch_;
    line.dirty = s.dirty ? 1 : 0;
    fills_.push_back(s.index);
  }
  ever_seen_.assign(c.ever_seen);
  stats_ = c.stats;
  evictions_ = c.evictions;
}

// --- BlockSet ---------------------------------------------------------------

std::size_t DirectMappedCache::BlockSet::slot(Addr key) const noexcept {
  // Fibonacci hashing: the top bits of key * 2^64/phi.
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
}

bool DirectMappedCache::BlockSet::contains(Addr key) const noexcept {
  if (key == 0) return has_zero_;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = slot(key);; i = (i + 1) & mask) {
    if (slots_[i] == key) return true;
    if (slots_[i] == 0) return false;
  }
}

bool DirectMappedCache::BlockSet::insert(Addr key) {
  if (key == 0) return !std::exchange(has_zero_, true);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = slot(key);
  for (; slots_[i] != 0; i = (i + 1) & mask) {
    if (slots_[i] == key) return false;
  }
  slots_[i] = key;
  if (++size_ * 2 > slots_.size()) grow();
  return true;
}

void DirectMappedCache::BlockSet::grow() {
  std::vector<Addr> old(slots_.size() * 2, 0);
  old.swap(slots_);
  --shift_;
  const std::size_t mask = slots_.size() - 1;
  for (const Addr key : old) {
    if (key == 0) continue;
    std::size_t i = slot(key);
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = key;
  }
}

void DirectMappedCache::BlockSet::assign(const BlockSet& o) {
  if (o.slots_.size() >= slots_.size()) {
    *this = o;
    return;
  }
  clear();
  has_zero_ = o.has_zero_;
  for (const Addr key : o.slots_) {
    if (key != 0) insert(key);
  }
}

std::vector<Addr> DirectMappedCache::BlockSet::sorted() const {
  std::vector<Addr> out;
  out.reserve(size_ + 1);
  if (has_zero_) out.push_back(0);
  for (const Addr key : slots_) {
    if (key != 0) out.push_back(key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void DirectMappedCache::BlockSet::clear() noexcept {
  std::fill(slots_.begin(), slots_.end(), Addr{0});
  size_ = 0;
  has_zero_ = false;
}

}  // namespace l96::sim
