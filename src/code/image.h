// Code images: the result of "linking" the code model under a particular
// configuration — every function (or path composite) gets concrete
// addresses for its prologue, basic blocks, and epilogue.
//
// The image builder implements the paper's address-assignment strategies:
//   - link order           (STD/OUT: functions in registration order)
//   - bipartite            (CLO/ALL: path vs. library partitions, each in
//                           invocation order — "closest is best" per class)
//   - linear               (strict invocation order, no partitioning)
//   - micro-positioning    (trace-driven per-function placement minimizing
//                           replacement misses; the losing comparator)
//   - pessimal             (BAD: every hot function aliased onto the same
//                           i-cache sets, and onto the data region in the
//                           b-cache)
//   - random               (ablation)
//
// With outlining enabled, PREDICT_FALSE blocks move to the end of the
// function (link-order layouts) or to a shared cold segment (cloning
// layouts — clones share outlined code with the originals, Figure 2).
// With path-inlining, declared paths become composites whose blocks are
// placed in first-execution order, eliminating internal call overhead.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "code/config.h"
#include "code/model.h"
#include "code/trace.h"
#include "sim/cache.h"
#include "sim/miss_profiler.h"

namespace l96::code {

struct BlockPlacement {
  sim::Addr addr = 0;
  std::uint32_t words = 0;      ///< instructions lowered for this block
  std::uint32_t slack = 0;      ///< extra words reserved for call sequences
  bool outlined = false;        ///< placed out of the mainline

  sim::Addr end() const noexcept { return addr + 4ull * (words + slack); }
};

struct FnPlacement {
  sim::Addr entry = 0;               ///< prologue address
  std::uint32_t prologue_words = 0;  ///< after any specialization
  sim::Addr epilogue_addr = 0;
  std::uint32_t epilogue_words = 0;
  std::vector<BlockPlacement> blocks;  ///< indexed by BlockId
  int composite = -1;                  ///< path composite id, -1 standalone
  bool got_load_on_call = true;        ///< callee address loaded from GOT
};

/// Immutable result of image construction.
class CodeImage {
 public:
  /// Placement of `fn`.  When `fn` is a path member and `in_path` is true,
  /// returns its placement inside the composite; otherwise the standalone
  /// (cold-segment) placement used on classifier misses.
  const FnPlacement& placement(FnId fn, bool in_path) const;

  /// Composite id of `fn`, or -1 if it is not a path member.
  int composite_of(FnId fn) const noexcept;

  /// Total words occupied by hot (mainline) code, and by everything.
  std::uint64_t hot_words() const noexcept { return hot_words_; }
  std::uint64_t total_words() const noexcept { return total_words_; }

  sim::Addr hot_base() const noexcept { return hot_base_; }
  sim::Addr hot_end() const noexcept { return hot_end_; }
  sim::Addr got_base() const noexcept { return got_base_; }

  /// Simulated GOT slot of a function (a data address: the load emitted for
  /// a non-pc-relative call reads this slot).
  sim::Addr got_addr(FnId fn) const noexcept { return got_base_ + 8ull * fn; }

  /// Export every placed instruction region (prologue, basic blocks,
  /// epilogue — composite and standalone placements alike) into `map`, one
  /// owner per function named after it.  Regions carry the basic-block
  /// index and segment (hot / outlined / cold-segment standalone copy), so
  /// a cache-miss profiler can attribute any fetched address back to the
  /// function and block that own it.  Data regions are the caller's job
  /// (see build_owner_map in code/lower.h); call map.seal() when done.
  void export_regions(const CodeRegistry& reg, sim::OwnerMap& map) const;

 private:
  friend class ImageBuilder;
  std::vector<FnPlacement> standalone_;  // by FnId
  /// By FnId, both empty when the image has no path members.
  std::vector<FnPlacement> composite_;  ///< meaningful for members only
  std::vector<int> member_of_;  ///< composite id, -1 standalone
  std::uint64_t hot_words_ = 0;
  std::uint64_t total_words_ = 0;
  sim::Addr hot_base_ = 0;
  sim::Addr hot_end_ = 0;
  sim::Addr got_base_ = 0;
};

class ImageBuilder {
 public:
  ImageBuilder(const CodeRegistry& reg, const StackConfig& cfg);

  /// Declare a path for path-inlining (ignored unless cfg.path_inlining).
  ImageBuilder& declare_path(PathSpec spec);

  /// Provide the profile used by the invocation-order layouts and by
  /// micro-positioning / composite block ordering: a prior PathTrace of the
  /// same workload (typically captured under the STD image).
  ImageBuilder& set_profile(const PathTrace& profile);

  /// Address the pessimal layout aliases hot code against in the b-cache
  /// (typically the base of the message-buffer arena).
  ImageBuilder& set_conflict_data_base(sim::Addr a);

  /// i-cache geometry the layouts target.
  ImageBuilder& set_cache_geometry(std::uint32_t icache_bytes,
                                   std::uint32_t block_bytes,
                                   std::uint32_t bcache_bytes);

  CodeImage build();

 private:
  struct Unit;  // a placeable run of code (function mainline or composite)

  std::vector<Unit> make_units() const;
  void order_units_by_profile(std::vector<Unit>& units) const;
  void place_link_order(std::vector<Unit>& units);
  void place_linear(std::vector<Unit>& units);
  void place_bipartite(std::vector<Unit>& units);
  void place_micro(std::vector<Unit>& units);
  void place_pessimal(std::vector<Unit>& units);
  void place_random(std::vector<Unit>& units);
  void place_cold_segment(std::vector<Unit>& units, CodeImage& img);
  void finalize(std::vector<Unit>& units, CodeImage& img);

  std::uint32_t call_words(const Function& callee_ctx) const;
  std::uint32_t inline_gap_words(const BasicBlock& b) const;
  bool should_outline(FnId fn, BlockId b) const;
  std::uint32_t effective_words(const Function& fn, const BasicBlock& b,
                                bool in_composite) const;

  const CodeRegistry& reg_;
  StackConfig cfg_;
  std::vector<PathSpec> paths_;
  std::vector<FnId> fn_first_use_;                       // profile order
  std::vector<std::pair<FnId, BlockId>> block_profile_;  // executed blocks
  sim::Addr conflict_data_base_ = 0x0400'0000;
  std::uint32_t icache_bytes_ = 8 * 1024;
  std::uint32_t block_bytes_ = 32;
  std::uint32_t bcache_bytes_ = 2 * 1024 * 1024;
};

}  // namespace l96::code
