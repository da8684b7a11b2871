// Packet classifier (Section 3.3): path-inlined inbound code is only valid
// for packets that actually follow the assumed path, so incoming frames are
// matched against per-path rule lists (offset/mask/value predicates over
// the frame bytes, in the style of PathFinder/BPF).  A match selects the
// composite; a miss falls back to the standalone (slow-path) functions.
//
// Two lookup engines share one rule table:
//
//  * linear scan — paths tried in registration order, every rule of every
//    attempted path evaluated until one path matches.  O(total rules) per
//    frame; the right shape for a handful of hand-written paths, and the
//    reference semantics the tuple engine must reproduce exactly.
//  * tuple space — rules grouped by *tuple signature*, the ordered list of
//    (offset, size, mask) templates a path's rules share.  Each signature
//    owns one hash table keyed by the concatenated masked field values;
//    classification probes the tuples in best-priority order (a tuple's
//    priority is the registration index of its earliest path) and stops as
//    soon as no unprobed tuple could hold a better match.  Candidate paths
//    found in a bucket are verified rule by rule, so hash collisions can
//    never produce a wrong match.  O(#tuples) probes per frame — synthetic
//    production rule sets of thousands of paths share a handful of field
//    templates, so lookup cost stays flat while the linear scan grows
//    linearly (bench_classifier_scale).
//
// Engine selection defaults to kAuto: tuple space once the rule set is
// large enough to amortize the probe machinery, unless the signature set is
// degenerate (nearly every path has a private signature, so probing tuples
// IS a linear scan with extra overhead) — then the legacy linear scan runs.
//
// The paper reports classifier costs of 1-4 us per packet on this hardware
// but measures PIN/ALL with a zero-overhead classifier.  Here the cost is
// measured instead: the lookup is registered in the code model
// (proto::register_classifier_code) and priced by replaying its trace
// through the simulated caches (harness/classify.h).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace l96::code {

struct ClassifierRule {
  std::uint16_t offset = 0;  ///< byte offset into the frame
  std::uint8_t size = 1;     ///< 1, 2 or 4 bytes, big-endian
  std::uint32_t mask = 0xFFFFFFFF;
  std::uint32_t value = 0;
};

/// Result of a counted classification: the matching path id (or nullopt)
/// plus how much work the deciding engine did — the cost drivers for the
/// flow-cache lookup model (code/flow_cache.h) and for the trace emission
/// that prices the lookup in the simulated caches.
///
/// `path_id` is engine-independent (tuple space reproduces the linear
/// scan's decision byte for byte — fuzz-tested); the work counters are the
/// *deciding engine's own* cost: the linear scan counts every rule it
/// evaluated, the tuple engine counts hash probes plus the rules examined
/// while verifying bucket candidates.  On frames with at most one fully-
/// matching path that is never more than the linear scan examines; a frame
/// that also fully matches a *later* path whose tuple has better priority
/// pays that path's rules too (the linear scan stopped before reaching it).
struct ClassifyScan {
  std::optional<int> path_id;
  std::size_t rules_examined = 0;
  std::size_t tuples_probed = 0;        ///< tuple engine: hash-table probes
  std::size_t candidates_verified = 0;  ///< tuple engine: bucket entries checked
  bool tuple_engine = false;            ///< which engine decided
};

/// One hash-table probe of a tuple-space classification, recorded so the
/// caller can emit the lookup's code-model trace (protocols/stack_code.h's
/// trace_classification): which tuple was probed, the frame's key in it,
/// and how much verification work the bucket cost.
struct ClassifyProbe {
  std::uint32_t tuple = 0;
  std::uint64_t key = 0;
  std::uint16_t candidates = 0;  ///< bucket entries verified
  std::uint16_t rules = 0;       ///< rules examined across those candidates
  bool matched = false;          ///< one candidate survived verification
};

struct ClassifyProbeLog {
  std::vector<ClassifyProbe> probes;
  void clear() { probes.clear(); }
};

class PacketClassifier {
 public:
  enum class Engine : std::uint8_t {
    kAuto,    ///< tuple space for large non-degenerate sets, else linear
    kLinear,  ///< force the legacy linear scan
    kTuple,   ///< force the tuple-space lookup
  };

  /// kAuto resolves to the tuple engine at this many paths or more...
  static constexpr std::size_t kAutoTupleMinPaths = 16;
  /// ...unless more than half the paths carry a private signature (then
  /// tuple probing degenerates into a linear scan with extra overhead).
  static constexpr std::size_t kAutoDegenerateFactor = 2;

  /// Simulated base address of the tuple hash tables, for the d-cache
  /// traffic the traced lookup emits (distinct from the message-buffer
  /// arena at xk::SimAlloc::kArenaBase and the conflict-data base).
  static constexpr std::uint64_t kTableBase = 0x2000'0000ULL;
  static constexpr std::uint64_t kTableTupleStride = 4096;
  static constexpr std::uint64_t kTableSlots = 128;  ///< 32-byte slots/tuple

  /// Register a path; returns nothing — `path_id` is caller-chosen and is
  /// what classify() returns on a match.  Paths are tried in registration
  /// order (most specific first, caller's responsibility).
  ///
  /// Throws std::invalid_argument when a rule's `size` is not 1, 2 or 4
  /// (larger sizes would overflow the 32-bit accumulator in rule_matches
  /// and silently mismatch) or when `path_id` is already registered
  /// (duplicates would make path_name()/classify() order-dependent).  The
  /// duplicate check and the tuple-index update are O(rules) per insert,
  /// so registering N paths is O(total rules), not O(N^2).
  void add_path(std::string name, int path_id,
                std::vector<ClassifierRule> rules);

  /// Classify a frame; returns the matching path id or std::nullopt.
  std::optional<int> classify(std::span<const std::uint8_t> frame) const;

  /// Classify and report the deciding engine's work counters.  When `log`
  /// is non-null and the tuple engine decides, every hash probe is appended
  /// to it (the caller clears the log).
  ClassifyScan classify_scan(std::span<const std::uint8_t> frame,
                             ClassifyProbeLog* log = nullptr) const;

  /// Force one engine regardless of the selection policy — the
  /// differential tests and bench_classifier_scale run both over the same
  /// frames and require byte-identical decisions.
  ClassifyScan classify_scan_linear(std::span<const std::uint8_t> frame) const;
  ClassifyScan classify_scan_tuple(std::span<const std::uint8_t> frame,
                                   ClassifyProbeLog* log = nullptr) const;

  void set_engine(Engine e) noexcept { engine_ = e; }
  Engine engine() const noexcept { return engine_; }
  /// The engine classify_scan() will actually use right now.
  bool tuple_active() const noexcept;

  /// Name of a registered path id (for diagnostics); O(1).
  const std::string* path_name(int path_id) const;

  std::size_t num_paths() const noexcept { return paths_.size(); }
  std::size_t num_tuples() const noexcept { return tuples_.size(); }

  /// Simulated address of the bucket `key` hashes to in tuple `tuple` (the
  /// load the traced probe emits).
  static std::uint64_t table_addr(std::uint32_t tuple,
                                  std::uint64_t key) noexcept;

 private:
  struct PathEntry {
    std::string name;
    int id;
    std::vector<ClassifierRule> rules;
  };
  /// One tuple: every path whose rules share one ordered template list.
  /// Created at the first such path, so creation order is ascending
  /// best-priority order — the probe order needs no re-sorting.
  struct Tuple {
    std::vector<ClassifierRule> templates;  ///< values unused (mask schema)
    /// Masked-value hash -> registration indices (ascending).  Collisions
    /// are harmless: candidates are verified rule by rule.
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
    std::uint32_t first_path = 0;  ///< earliest registration index (priority)
    std::uint16_t max_extent = 0;  ///< max offset+size over the templates
  };

  static bool rule_matches(const ClassifierRule& r,
                           std::span<const std::uint8_t> frame);
  /// Rules of paths_[idx] against `frame`, short-circuiting; adds the
  /// examined count to `examined`.
  bool verify_path(std::uint32_t idx, std::span<const std::uint8_t> frame,
                   std::size_t& examined) const;
  /// The frame's key in `t`, or nullopt when the frame is too short for
  /// one of the tuple's fields (no rule of that template can match it).
  static std::optional<std::uint64_t> tuple_key(
      const Tuple& t, std::span<const std::uint8_t> frame);

  std::vector<PathEntry> paths_;
  std::unordered_map<int, std::size_t> by_id_;  ///< path_id -> paths_ index
  /// Tuple index, maintained incrementally by add_path.  Keyed by the
  /// packed (offset, size, mask) template list — exact comparison, so
  /// distinct signatures can never merge.
  std::map<std::vector<std::uint64_t>, std::size_t> tuple_of_signature_;
  std::vector<Tuple> tuples_;
  Engine engine_ = Engine::kAuto;
};

}  // namespace l96::code
