#include "code/image.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace l96::code {

namespace {

// Simulated address map (documented in DESIGN.md).  Code regions live below
// 0x4000'0000; data (SimAlloc arena, stacks, GOT) lives above 0x8000'0000,
// so code and data never overlap byte-for-byte but do contend for the same
// direct-mapped cache sets, as on the real machine.
constexpr sim::Addr kHotBase = 0x0100'0000;
constexpr sim::Addr kMicroBase = 0x0200'0000;
constexpr sim::Addr kRandomBase = 0x0800'0000;
constexpr sim::Addr kPessimalBase = 0x1000'0000;
constexpr sim::Addr kColdBase = 0x3000'0000;
constexpr sim::Addr kGotBase = 0xA00C'0000;

sim::Addr round_up(sim::Addr a, std::uint64_t align) {
  return (a + align - 1) / align * align;
}

}  // namespace

// ---------------------------------------------------------------------------
// CodeImage queries
// ---------------------------------------------------------------------------

const FnPlacement& CodeImage::placement(FnId fn, bool in_path) const {
  if (in_path && composite_of(fn) != -1) return composite_[fn];
  return standalone_.at(fn);
}

int CodeImage::composite_of(FnId fn) const noexcept {
  return fn < member_of_.size() ? member_of_[fn] : -1;
}

void CodeImage::export_regions(const CodeRegistry& reg,
                               sim::OwnerMap& map) const {
  using sim::OwnerSegment;

  // Owner ids in registry order, independent of placement-map iteration
  // order, so two exports of the same image are byte-identical.
  for (const Function& fn : reg.functions()) map.add_owner(fn.name);

  auto add_placement = [&](FnId f, const FnPlacement& pl,
                           bool standalone_copy) {
    const sim::OwnerId owner = map.add_owner(reg.fn(f).name);
    const OwnerSegment body =
        standalone_copy ? OwnerSegment::kStandalone : OwnerSegment::kHot;
    map.add_region(pl.entry, pl.entry + 4ull * pl.prologue_words, owner, body);
    for (BlockId b = 0; b < pl.blocks.size(); ++b) {
      const BlockPlacement& bp = pl.blocks[b];
      if (bp.words == 0 && bp.slack == 0) continue;
      const OwnerSegment seg = standalone_copy ? OwnerSegment::kStandalone
                               : bp.outlined   ? OwnerSegment::kOutlined
                                               : OwnerSegment::kHot;
      map.add_region(bp.addr, bp.end(), owner, seg,
                     static_cast<std::int32_t>(b));
    }
    map.add_region(pl.epilogue_addr,
                   pl.epilogue_addr + 4ull * pl.epilogue_words, owner, body);
  };

  for (FnId f = 0; f < standalone_.size(); ++f) {
    add_placement(f, standalone_[f], composite_of(f) != -1);
  }
  for (const Function& fn : reg.functions()) {
    if (composite_of(fn.id) != -1) {
      add_placement(fn.id, composite_[fn.id], /*standalone_copy=*/false);
    }
  }
}

// ---------------------------------------------------------------------------
// ImageBuilder
// ---------------------------------------------------------------------------

/// A placeable contiguous run of code: one function's mainline (plus, for
/// non-cloning layouts, its outlined blocks appended at the end), or a whole
/// path composite.
struct ImageBuilder::Unit {
  struct Entry {
    enum class Kind : std::uint8_t { kPrologue, kBlock, kEpilogue } kind;
    FnId fn = kInvalidFn;
    BlockId block = 0;
    std::uint32_t words = 0;
    std::uint32_t slack = 0;
    bool outlined = false;
    sim::Addr addr = 0;  // assigned during placement
  };

  bool is_composite = false;
  int composite_id = -1;
  std::vector<FnId> fns;  // single fn, or composite members
  FnKind kind = FnKind::kPath;
  std::vector<Entry> hot;
  std::vector<Entry> cold;
  sim::Addr base = 0;

  std::uint32_t hot_words() const {
    std::uint32_t n = 0;
    for (const auto& e : hot) n += e.words + e.slack;
    return n;
  }
  std::uint32_t cold_words() const {
    std::uint32_t n = 0;
    for (const auto& e : cold) n += e.words + e.slack;
    return n;
  }

  /// Assign addresses to hot entries, packing from `base_addr`.  Returns the
  /// first address past the unit.
  sim::Addr place_hot(sim::Addr base_addr) {
    base = base_addr;
    sim::Addr cursor = base_addr;
    for (auto& e : hot) {
      e.addr = cursor;
      cursor += 4ull * (e.words + e.slack);
    }
    return cursor;
  }
  sim::Addr place_cold(sim::Addr base_addr) {
    sim::Addr cursor = base_addr;
    for (auto& e : cold) {
      e.addr = cursor;
      cursor += 4ull * (e.words + e.slack);
    }
    return cursor;
  }
};

ImageBuilder::ImageBuilder(const CodeRegistry& reg, const StackConfig& cfg)
    : reg_(reg), cfg_(cfg) {}

ImageBuilder& ImageBuilder::declare_path(PathSpec spec) {
  paths_.push_back(std::move(spec));
  return *this;
}

ImageBuilder& ImageBuilder::set_profile(const PathTrace& profile) {
  fn_first_use_.clear();
  block_profile_.clear();
  std::unordered_set<FnId> seen;
  for (const Event& ev : profile.events) {
    if (ev.kind == EventKind::kCall && seen.insert(ev.fn).second) {
      fn_first_use_.push_back(ev.fn);
    }
    if (ev.kind == EventKind::kBlock) {
      block_profile_.emplace_back(ev.fn, ev.block);
    }
  }
  return *this;
}

ImageBuilder& ImageBuilder::set_conflict_data_base(sim::Addr a) {
  conflict_data_base_ = a;
  return *this;
}

ImageBuilder& ImageBuilder::set_cache_geometry(std::uint32_t icache_bytes,
                                               std::uint32_t block_bytes,
                                               std::uint32_t bcache_bytes) {
  icache_bytes_ = icache_bytes;
  block_bytes_ = block_bytes;
  bcache_bytes_ = bcache_bytes;
  return *this;
}

bool ImageBuilder::should_outline(FnId fn, BlockId bi) const {
  if (!cfg_.outlining) return false;
  const BasicBlock& b = reg_.fn(fn).blocks[bi];
  if (outline_candidate(b.cls)) return true;
  if (cfg_.outline_mode == OutlineMode::kProfileAggressive) {
    // Profile-based outlining: any block the collected profile did not
    // cover moves out of line — denser, but wrong profiles cost cold jumps
    // (the paper's argument for the conservative approach).
    for (const auto& [f, blk] : block_profile_) {
      if (f == fn && blk == bi) return false;
    }
    return true;
  }
  return false;
}

std::uint32_t ImageBuilder::inline_gap_words(const BasicBlock& b) const {
  // Without outlining, compiled mainline code is peppered with small inline
  // error snippets the hot path jumps over (Section 3.1).  Model them as a
  // proportional gap after each mainline block: address space and fetch
  // bandwidth are consumed, and the block terminator becomes a taken
  // branch.  Outlining removes the gaps.
  if (cfg_.outlining || outline_candidate(b.cls)) return 0;
  return 6 + b.instructions / 3;
}

std::uint32_t ImageBuilder::call_words(const Function&) const {
  // Call sequence at a call site: load of the callee address from the GOT
  // plus the jsr; with cloning + pc-relative specialization the load
  // disappears (bsr with an immediate displacement).
  return (cfg_.cloning && cfg_.pc_relative_calls) ? 1 : 2;
}

std::uint32_t ImageBuilder::effective_words(const Function& fn,
                                            const BasicBlock& b,
                                            bool in_composite) const {
  std::uint32_t w = b.instructions;
  if (in_composite && fn.pin_discount_permille > 0) {
    w = std::max<std::uint32_t>(
        1, w - w * fn.pin_discount_permille / 1000);
  }
  if (cfg_.cloning && cfg_.clone_at_connect &&
      fn.connect_discount_permille > 0 && !outline_candidate(b.cls)) {
    w = std::max<std::uint32_t>(
        1, w - w * fn.connect_discount_permille / 1000);
  }
  return w;
}

std::vector<ImageBuilder::Unit> ImageBuilder::make_units() const {
  std::vector<Unit> units;

  std::unordered_set<FnId> in_composite;
  if (cfg_.path_inlining) {
    for (const auto& p : paths_) {
      for (FnId f : p.members) in_composite.insert(f);
    }
  }

  // --- path composites -----------------------------------------------------
  if (cfg_.path_inlining) {
    int cid = 0;
    for (const auto& p : paths_) {
      Unit u;
      u.is_composite = true;
      u.composite_id = cid++;
      u.fns = p.members;
      u.kind = FnKind::kPath;
      if (p.members.empty()) throw std::invalid_argument("empty path");

      const Function& first = reg_.fn(p.members.front());

      // Single prologue/epilogue for the whole composite.
      Unit::Entry pro{Unit::Entry::Kind::kPrologue, first.id, 0,
                      first.prologue_instrs, 0, false, 0};
      u.hot.push_back(pro);

      // Blocks in first-execution order (from the profile); unexecuted
      // mainline blocks follow in member order; outlining still applies.
      std::unordered_set<std::uint64_t> placed;
      auto key = [](FnId f, BlockId b) {
        return (std::uint64_t(f) << 32) | b;
      };
      std::unordered_set<FnId> members(p.members.begin(), p.members.end());

      auto add_block = [&](FnId f, BlockId bi) {
        const Function& fn = reg_.fn(f);
        const BasicBlock& b = fn.blocks[bi];
        if (!placed.insert(key(f, bi)).second) return;
        Unit::Entry e{Unit::Entry::Kind::kBlock, f, bi,
                      effective_words(fn, b, true),
                      b.call_sites * call_words(fn) + inline_gap_words(b),
                      false, 0};
        if (should_outline(f, bi)) {
          e.outlined = true;
          u.cold.push_back(e);
        } else {
          u.hot.push_back(e);
        }
      };

      for (const auto& [f, bi] : block_profile_) {
        if (members.contains(f)) add_block(f, bi);
      }
      for (FnId f : p.members) {
        const Function& fn = reg_.fn(f);
        for (BlockId bi = 0; bi < fn.blocks.size(); ++bi) add_block(f, bi);
      }

      Unit::Entry epi{Unit::Entry::Kind::kEpilogue, first.id, 0,
                      first.epilogue_instrs, 0, false, 0};
      u.hot.push_back(epi);
      units.push_back(std::move(u));
    }
  }

  // --- standalone functions --------------------------------------------------
  for (const Function& fn : reg_.functions()) {
    if (in_composite.contains(fn.id)) continue;  // placed in cold seg later
    Unit u;
    u.fns = {fn.id};
    u.kind = fn.kind;

    std::uint32_t pro_words = fn.prologue_instrs;
    if (cfg_.cloning && cfg_.specialize_prologue) {
      pro_words -= std::min<std::uint32_t>(pro_words, fn.prologue_skippable);
    }
    u.hot.push_back({Unit::Entry::Kind::kPrologue, fn.id, 0, pro_words, 0,
                     false, 0});
    for (BlockId bi = 0; bi < fn.blocks.size(); ++bi) {
      const BasicBlock& b = fn.blocks[bi];
      Unit::Entry e{Unit::Entry::Kind::kBlock, fn.id, bi,
                    effective_words(fn, b, false),
                    b.call_sites * call_words(fn) + inline_gap_words(b),
                    false, 0};
      if (should_outline(fn.id, bi)) {
        e.outlined = true;
        u.cold.push_back(e);
      } else {
        u.hot.push_back(e);
      }
    }
    u.hot.push_back({Unit::Entry::Kind::kEpilogue, fn.id, 0,
                     fn.epilogue_instrs, 0, false, 0});
    units.push_back(std::move(u));
  }
  return units;
}

void ImageBuilder::order_units_by_profile(std::vector<Unit>& units) const {
  // Rank: first use of any of the unit's functions in the profile.
  std::unordered_map<FnId, std::size_t> rank;
  for (std::size_t i = 0; i < fn_first_use_.size(); ++i) {
    rank.emplace(fn_first_use_[i], i);
  }
  auto unit_rank = [&](const Unit& u) {
    std::size_t best = ~std::size_t{0};
    for (FnId f : u.fns) {
      auto it = rank.find(f);
      if (it != rank.end()) best = std::min(best, it->second);
    }
    return best;
  };
  std::stable_sort(units.begin(), units.end(),
                   [&](const Unit& a, const Unit& b) {
                     return unit_rank(a) < unit_rank(b);
                   });
}

void ImageBuilder::place_link_order(std::vector<Unit>& units) {
  // Link order is whatever order the object files happened to be given to
  // the linker — unrelated to invocation order.  A deterministic shuffle by
  // name hash models that: temporally adjacent functions land at arbitrary
  // cache sets, so path and library code occasionally alias (the paper's
  // STD had 72 replacement misses despite manual link-order tuning, and
  // PIN kept 66 because "there is nothing that prevents library code from
  // clashing with path code").  Function entries align to cache blocks;
  // outlined code (if any) stays at the end of each function.
  auto name_hash = [this](const Unit& u) {
    std::uint64_t h = 1469598103934665603ULL;
    const Function& fn = reg_.fn(u.fns.front());
    for (char c : fn.name) h = (h ^ static_cast<unsigned char>(c)) *
                               1099511628211ULL;
    return h;
  };
  std::stable_sort(units.begin(), units.end(),
                   [&](const Unit& a, const Unit& b) {
                     return name_hash(a) < name_hash(b);
                   });
  sim::Addr cursor = kHotBase;
  for (Unit& u : units) {
    cursor = round_up(cursor, block_bytes_);
    cursor = u.place_hot(cursor);
    if (!cfg_.cloning) cursor = u.place_cold(cursor);
  }
}

void ImageBuilder::place_linear(std::vector<Unit>& units) {
  order_units_by_profile(units);
  sim::Addr cursor = kHotBase;
  for (Unit& u : units) cursor = u.place_hot(cursor);
}

void ImageBuilder::place_bipartite(std::vector<Unit>& units) {
  order_units_by_profile(units);

  // Size the library partition to hold all library units, capped at half
  // the cache.
  std::uint64_t lib_bytes = 0;
  for (const Unit& u : units) {
    if (u.kind == FnKind::kLibrary) lib_bytes += 4ull * u.hot_words();
  }
  const std::uint64_t lib_window = std::min<std::uint64_t>(
      round_up(lib_bytes, block_bytes_), icache_bytes_ / 2);

  // Library units pack from set-offset 0.
  sim::Addr lib_cursor = kHotBase;  // kHotBase is icache-aligned
  assert(kHotBase % icache_bytes_ == 0);
  // Path units pack from just past the library window.  Placement is done
  // at basic-block granularity: whenever the cursor would enter a library
  // window (every icache period), it skips past it, so even path composites
  // much larger than the cache never evict library code.
  sim::Addr path_cursor = kHotBase + lib_window;

  auto skip_lib_sets = [&](sim::Addr a, std::uint64_t bytes) {
    if (lib_window == 0) return a;
    const std::uint64_t off = a % icache_bytes_;
    if (off < lib_window) a += lib_window - off;
    // An entry crossing into the next period's library window starts after
    // that window instead (entries are far smaller than a period).
    const std::uint64_t end_off = (a + bytes - 1) % icache_bytes_;
    const std::uint64_t start_off = a % icache_bytes_;
    if (bytes > 0 && end_off < start_off && end_off < lib_window) {
      a += icache_bytes_ - start_off + lib_window;
    }
    return a;
  };

  for (Unit& u : units) {
    if (u.kind == FnKind::kLibrary) {
      lib_cursor = u.place_hot(lib_cursor);
    } else {
      u.base = path_cursor;
      for (auto& e : u.hot) {
        const std::uint64_t bytes = 4ull * (e.words + e.slack);
        path_cursor = skip_lib_sets(path_cursor, bytes);
        e.addr = path_cursor;
        path_cursor += bytes;
      }
    }
  }
}

void ImageBuilder::place_micro(std::vector<Unit>& units) {
  order_units_by_profile(units);

  // Greedy trace-driven placement: for each unit in first-use order, try
  // every cache-block-aligned set offset and keep the one minimizing misses
  // of the block-level profile over the units placed so far.  Units get
  // disjoint memory slabs so any set offset is reachable.
  std::uint64_t max_unit_bytes = 0;
  for (const Unit& u : units) {
    max_unit_bytes = std::max<std::uint64_t>(max_unit_bytes,
                                             4ull * u.hot_words());
  }
  const std::uint64_t slab =
      round_up(max_unit_bytes + icache_bytes_, icache_bytes_);

  // Map (fn, block) -> placed entry, filled in as units are placed.
  std::unordered_map<std::uint64_t, const Unit::Entry*> placed_blocks;
  auto key = [](FnId f, BlockId b) { return (std::uint64_t(f) << 32) | b; };

  const std::uint32_t num_sets = icache_bytes_ / block_bytes_;
  std::vector<sim::Addr> tags(num_sets, ~sim::Addr{0});

  auto profile_misses = [&]() {
    std::fill(tags.begin(), tags.end(), ~sim::Addr{0});
    std::uint64_t misses = 0;
    for (const auto& [f, b] : block_profile_) {
      auto it = placed_blocks.find(key(f, b));
      if (it == placed_blocks.end()) continue;
      const Unit::Entry& e = *it->second;
      for (sim::Addr a = e.addr / block_bytes_;
           a <= (e.addr + 4ull * std::max<std::uint32_t>(e.words, 1) - 1) /
                    block_bytes_;
           ++a) {
        const std::uint32_t set = a % num_sets;
        if (tags[set] != a) {
          ++misses;
          tags[set] = a;
        }
      }
    }
    return misses;
  };

  std::uint64_t slab_index = 0;
  for (Unit& u : units) {
    const sim::Addr slab_base = kMicroBase + slab_index * slab;
    ++slab_index;

    std::uint64_t best_misses = ~std::uint64_t{0};
    sim::Addr best_base = slab_base;

    // Temporarily register this unit's blocks for cost evaluation.
    for (std::uint32_t off = 0; off < icache_bytes_; off += block_bytes_) {
      u.place_hot(slab_base + off);
      for (const auto& e : u.hot) {
        if (e.kind == Unit::Entry::Kind::kBlock) {
          placed_blocks[key(e.fn, e.block)] = &e;
        }
      }
      const std::uint64_t m = profile_misses();
      if (m < best_misses) {
        best_misses = m;
        best_base = slab_base + off;
      }
    }
    u.place_hot(best_base);
    for (const auto& e : u.hot) {
      if (e.kind == Unit::Entry::Kind::kBlock) {
        placed_blocks[key(e.fn, e.block)] = &e;
      }
    }
  }
}

void ImageBuilder::place_pessimal(std::vector<Unit>& units) {
  order_units_by_profile(units);
  // Adversarial placement: every hot *block* starts at the same small group
  // of i-cache sets (maximal conflict between caller, callee and library
  // code) and strides by the b-cache size, so the hot code also aliases
  // itself and the data arena in the unified b-cache.
  const sim::Addr base =
      kPessimalBase + conflict_data_base_ % bcache_bytes_;
  std::uint64_t slab = 0;
  for (Unit& u : units) {
    u.base = base + slab * bcache_bytes_;
    sim::Addr cursor = u.base;
    for (auto& e : u.hot) {
      const std::uint64_t bytes = 4ull * (e.words + e.slack);
      // Keep each unit within a narrow window of sets: wrap every 4 blocks.
      if ((cursor - u.base) % icache_bytes_ >= 4ull * block_bytes_ &&
          bytes < icache_bytes_) {
        ++slab;
        cursor = base + slab * bcache_bytes_;
      }
      e.addr = cursor;
      cursor += bytes;
    }
    ++slab;
  }
}

void ImageBuilder::place_random(std::vector<Unit>& units) {
  std::uint64_t seed = 0xC0FFEE123456789ULL;
  auto next = [&seed]() {
    seed ^= seed >> 12;
    seed ^= seed << 25;
    seed ^= seed >> 27;
    return seed * 0x2545F4914F6CDD1DULL;
  };
  std::uint64_t max_unit_bytes = 0;
  for (const Unit& u : units) {
    max_unit_bytes = std::max<std::uint64_t>(max_unit_bytes,
                                             4ull * u.hot_words());
  }
  const std::uint64_t slab =
      round_up(max_unit_bytes + icache_bytes_, icache_bytes_);
  std::uint64_t i = 0;
  for (Unit& u : units) {
    const std::uint64_t off =
        (next() % (icache_bytes_ / block_bytes_)) * block_bytes_;
    u.place_hot(kRandomBase + i * slab + off);
    ++i;
  }
}

void ImageBuilder::place_cold_segment(std::vector<Unit>& units,
                                      CodeImage& img) {
  sim::Addr cursor = kColdBase;
  if (cfg_.cloning) {
    // Clones share outlined code with the originals: all outlined blocks
    // live in one shared cold segment (Figure 2, right column).
    for (Unit& u : units) cursor = u.place_cold(cursor);
  }
  // Standalone copies of path members (used on classifier misses) also live
  // in the cold segment; they are full functions.
  if (cfg_.path_inlining) {
    for (const auto& p : paths_) {
      for (FnId f : p.members) {
        const Function& fn = reg_.fn(f);
        FnPlacement pl;
        pl.entry = cursor;
        pl.prologue_words = fn.prologue_instrs;
        pl.got_load_on_call = true;
        cursor += 4ull * pl.prologue_words;
        pl.blocks.resize(fn.blocks.size());
        // mainline, then outlined at end of function
        for (BlockId bi = 0; bi < fn.blocks.size(); ++bi) {
          const BasicBlock& b = fn.blocks[bi];
          if (should_outline(f, bi)) continue;
          BlockPlacement bp;
          bp.addr = cursor;
          bp.words = effective_words(fn, b, false);
          bp.slack = b.call_sites * call_words(fn);
          cursor += 4ull * (bp.words + bp.slack);
          pl.blocks[bi] = bp;
        }
        pl.epilogue_addr = cursor;
        pl.epilogue_words = fn.epilogue_instrs;
        cursor += 4ull * pl.epilogue_words;
        for (BlockId bi = 0; bi < fn.blocks.size(); ++bi) {
          const BasicBlock& b = fn.blocks[bi];
          if (!should_outline(f, bi)) continue;
          BlockPlacement bp;
          bp.addr = cursor;
          bp.words = effective_words(fn, b, false);
          bp.slack = b.call_sites * call_words(fn);
          bp.outlined = true;
          cursor += 4ull * (bp.words + bp.slack);
          pl.blocks[bi] = bp;
        }
        img.standalone_[f] = std::move(pl);
      }
    }
  }
}

void ImageBuilder::finalize(std::vector<Unit>& units, CodeImage& img) {
  sim::Addr hot_end = 0;
  std::uint64_t hot_words = 0;
  std::uint64_t total_words = 0;

  for (const Unit& u : units) {
    hot_words += u.hot_words();
    total_words += u.hot_words() + u.cold_words();
    for (const auto& e : u.hot) {
      hot_end = std::max<sim::Addr>(hot_end,
                                    e.addr + 4ull * (e.words + e.slack));
    }

    if (u.is_composite) {
      // Build a composite FnPlacement per member; an image without path
      // members allocates no composite table.
      if (img.member_of_.empty()) {
        img.composite_.resize(reg_.size());
        img.member_of_.assign(reg_.size(), -1);
      }
      for (FnId f : u.fns) {
        FnPlacement pl;
        pl.composite = u.composite_id;
        pl.got_load_on_call = !(cfg_.cloning && cfg_.pc_relative_calls);
        pl.blocks.resize(reg_.fn(f).blocks.size());
        img.composite_[f] = std::move(pl);
        img.member_of_[f] = u.composite_id;
      }
      const FnId first = u.fns.front();
      for (const auto& e : u.hot) {
        if (e.kind == Unit::Entry::Kind::kPrologue) {
          auto& pl = img.composite_[first];
          pl.entry = e.addr;
          pl.prologue_words = e.words;
        } else if (e.kind == Unit::Entry::Kind::kEpilogue) {
          auto& pl = img.composite_[first];
          pl.epilogue_addr = e.addr;
          pl.epilogue_words = e.words;
        } else {
          auto& pl = img.composite_[e.fn];
          pl.blocks[e.block] = {e.addr, e.words, e.slack, false};
        }
      }
      for (const auto& e : u.cold) {
        auto& pl = img.composite_[e.fn];
        pl.blocks[e.block] = {e.addr, e.words, e.slack, true};
      }
      // Members entered other than through `first` have no prologue of
      // their own inside the composite; their entry is their first block.
      for (FnId f : u.fns) {
        auto& pl = img.composite_[f];
        if (f == first) continue;
        for (const auto& bp : pl.blocks) {
          if (bp.words != 0) {
            pl.entry = bp.addr;
            break;
          }
        }
      }
    } else {
      const FnId f = u.fns.front();
      FnPlacement pl;
      pl.got_load_on_call = !(cfg_.cloning && cfg_.pc_relative_calls);
      pl.blocks.resize(reg_.fn(f).blocks.size());
      for (const auto& e : u.hot) {
        if (e.kind == Unit::Entry::Kind::kPrologue) {
          pl.entry = e.addr;
          pl.prologue_words = e.words;
        } else if (e.kind == Unit::Entry::Kind::kEpilogue) {
          pl.epilogue_addr = e.addr;
          pl.epilogue_words = e.words;
        } else {
          pl.blocks[e.block] = {e.addr, e.words, e.slack, false};
        }
      }
      for (const auto& e : u.cold) {
        pl.blocks[e.block] = {e.addr, e.words, e.slack, true};
      }
      img.standalone_[f] = std::move(pl);
    }
  }

  img.hot_words_ = hot_words;
  img.total_words_ = total_words;
  img.hot_base_ = kHotBase;
  img.hot_end_ = hot_end;
  img.got_base_ = kGotBase;
}

CodeImage ImageBuilder::build() {
  if (cfg_.path_inlining && block_profile_.empty()) {
    throw std::logic_error(
        "path-inlining requires a profile (set_profile) to order composite "
        "blocks");
  }
  const bool needs_profile =
      cfg_.cloning && cfg_.layout != LayoutKind::kLinkOrder &&
      cfg_.layout != LayoutKind::kRandom &&
      cfg_.layout != LayoutKind::kPessimal;
  if (needs_profile && fn_first_use_.empty()) {
    throw std::logic_error("layout strategy requires a profile");
  }

  std::vector<Unit> units = make_units();

  CodeImage img;
  img.standalone_.resize(reg_.size());

  if (!cfg_.cloning) {
    place_link_order(units);
  } else {
    switch (cfg_.layout) {
      case LayoutKind::kLinkOrder:
        place_link_order(units);
        break;
      case LayoutKind::kLinear:
        place_linear(units);
        break;
      case LayoutKind::kBipartite:
        place_bipartite(units);
        break;
      case LayoutKind::kMicroPosition:
        place_micro(units);
        break;
      case LayoutKind::kPessimal:
        place_pessimal(units);
        break;
      case LayoutKind::kRandom:
        place_random(units);
        break;
    }
  }
  place_cold_segment(units, img);
  finalize(units, img);
  return img;
}

}  // namespace l96::code
