// Flow-aware classification cache (Section 3.3 + Jain, DEC-TR-592).
//
// Path-inlined inbound code is guarded by a packet classifier; the
// classifier itself is a linear rule scan whose cost grows with the number
// of registered paths.  Jain's *Characteristics of Destination Address
// Locality* (DEC-TR-592, 1989) studies exactly this structure — a small
// cache front-ending a slow lookup — and compares three schemes:
//
//   * one-behind:    remember only the last flow (a single register);
//   * direct-mapped: an array indexed by a hash of the flow key;
//   * true LRU:      a fully-associative cache with least-recently-used
//                    replacement (the upper bound for a given capacity).
//
// A FlowCache extracts a flow key from configurable frame fields and
// memoizes classify() results per flow.  Each lookup is priced by an
// explicit cost model — a cache hit costs `hit_us`; a miss pays the probe
// plus the linear scan at `per_rule_us` per rule examined.  It is the only
// classification cost model: single-roundtrip Te keeps the paper's
// zero-overhead classifier.
//
// Connection churn makes cached flow bindings *stale*: when a connection
// closes and its flow key is later rebound, a path-inlined composite
// specialized on the old connection must not run.  invalidate(key) marks
// matching entries stale; a subsequent lookup that hits a stale entry
// reports `stale = true` (the caller routes the packet through the
// standalone slow path), re-scans, and refreshes the entry.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "code/classifier.h"

namespace l96::code {

/// One field of the flow key: `size` bytes at `offset` into the raw frame,
/// big-endian (same addressing as ClassifierRule).
struct FlowField {
  std::uint16_t offset = 0;
  std::uint8_t size = 1;  ///< 1, 2 or 4 bytes
};

using FlowKey = std::uint64_t;

/// Which frame fields identify a flow.  The per-stack specs live with the
/// protocol code (proto::tcpip_flow_key_spec / rpc_flow_key_spec).
struct FlowKeySpec {
  std::vector<FlowField> fields;

  /// Extract the key from a frame; nullopt when the frame is too short for
  /// any field (such packets bypass the cache).
  std::optional<FlowKey> key_of(std::span<const std::uint8_t> frame) const;

  /// The key for explicit field values, in field order — for invalidation
  /// by connection tuple (the caller has no frame in hand at close time).
  /// Values are truncated to each field's width, mirroring extraction.
  FlowKey key_of_values(std::span<const std::uint32_t> values) const;
};

enum class FlowCacheScheme : std::uint8_t {
  kOneBehind,
  kDirectMapped,
  kLru,
};

const char* to_string(FlowCacheScheme s);
/// Parse "one-behind" / "direct" / "lru" (CLI surface); nullopt otherwise.
std::optional<FlowCacheScheme> flow_cache_scheme_from_string(
    std::string_view s);

/// Per-lookup cost model, in microseconds.
///
/// Exactly one of two provenances fills the coefficients:
///  * analytic — the historical hand-set defaults below (Jain-style
///    constants; fine for scheme comparisons at a handful of rules);
///  * measured — harness::measure_classifier_costs replays the traced
///    cache probe and classification activations through the simulated
///    memory hierarchy under the row's StackConfig and fits
///    hit_us / probe_us / per_rule_us from the results, so a thousands-of-
///    rules row prices its lookups from the caches the paper models, not
///    from constants.  `measured` records the provenance; the lookup
///    formula (hit -> hit_us, miss -> probe_us + per_rule_us * rules) is
///    identical either way.
struct FlowCacheCosts {
  double hit_us = 0.2;       ///< cache hit: probe + guard check
  double probe_us = 0.2;     ///< paid on every miss before the scan starts
  double per_rule_us = 0.4;  ///< scan cost per rule the engine examined
  bool measured = false;     ///< coefficients came from simulated replays
};

struct FlowLookupResult {
  std::optional<int> path_id;
  bool cache_hit = false;
  bool stale = false;  ///< hit on an entry invalidated by connection churn
  bool scanned = false;  ///< the classifier ran (miss / stale / unkeyed)
  bool scan_matched = false;  ///< the scan itself found a path (path_id may
                              ///< differ after resolver re-binding)
  std::size_t rules_examined = 0;
  std::size_t tuples_probed = 0;        ///< tuple engine probes (scan only)
  std::size_t candidates_verified = 0;  ///< tuple engine bucket entries
  bool tuple_engine = false;            ///< engine that decided the scan
  double cost_us = 0;
};

struct FlowCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;        ///< fresh hits (stale hits excluded)
  std::uint64_t misses = 0;      ///< key absent; full scan performed
  std::uint64_t stale_hits = 0;  ///< key present but invalidated; full scan
  std::uint64_t unkeyed = 0;     ///< frame too short for the key spec
  std::uint64_t rules_examined = 0;
  /// Full scans that ended with no matching path.  Keyed no-match scans
  /// ARE memoized (the entry stores a nullopt binding, so repeat frames on
  /// the flow hit at hit_us — DEC-TR-592's cache works for negative
  /// destinations too); this counter makes the residual unmatched work
  /// visible:
  /// unkeyed frames and resolver-declined rebinds re-scan every time by
  /// design, and a churn-invalidated negative entry re-scans once.
  std::uint64_t unmatched_scans = 0;
  double cost_us = 0;            ///< total modeled classification cost

  /// Add `o`'s counters into these (per-core stats into a fleet total).
  void merge(const FlowCacheStats& o) noexcept {
    lookups += o.lookups;
    hits += o.hits;
    misses += o.misses;
    stale_hits += o.stale_hits;
    unkeyed += o.unkeyed;
    rules_examined += o.rules_examined;
    unmatched_scans += o.unmatched_scans;
    cost_us += o.cost_us;
  }

  double hit_ratio() const noexcept {
    return lookups != 0 ? static_cast<double>(hits) / lookups : 0.0;
  }
  double stale_ratio() const noexcept {
    return lookups != 0 ? static_cast<double>(stale_hits) / lookups : 0.0;
  }
};

class FlowCache {
 public:
  /// `capacity` is the entry count for direct-mapped and LRU schemes;
  /// one-behind always holds exactly one entry.  Throws
  /// std::invalid_argument when capacity is 0.
  FlowCache(FlowKeySpec spec, FlowCacheScheme scheme, std::size_t capacity,
            FlowCacheCosts costs = {});

  /// Classify `frame` through the cache: extract the key, probe, and on a
  /// miss or stale hit run (and memoize) the full linear scan.
  FlowLookupResult lookup(const PacketClassifier& classifier,
                          std::span<const std::uint8_t> frame);

  /// Resolves a flow key to its path binding when the cached binding is
  /// absent or stale.  The LB tier uses this to pin flows to a backend
  /// (path_id = backend index) chosen once per flow, not per packet.
  /// Consulted only after the classifier scan matched; a negative return
  /// means "no path right now" and is *not* memoized, so the next packet
  /// on the flow retries the resolution.
  using PathResolver = std::function<int(FlowKey)>;

  /// lookup() with flow pinning: a fresh hit returns the memoized
  /// binding untouched; a miss or stale hit pays the classifier scan and
  /// then re-binds through `resolver`.
  FlowLookupResult lookup(const PacketClassifier& classifier,
                          std::span<const std::uint8_t> frame,
                          const PathResolver& resolver);

  /// Connection churn: mark any cached entry for `key` stale.  The entry
  /// stays resident — the next lookup on that flow *hits* it, detects the
  /// invalidation, and must take the slow path (a stale hit).
  void invalidate(FlowKey key);

  /// Churn in the path itself (an LB backend leaving the pool): mark
  /// stale every resident entry currently bound to `path_id`.  Each
  /// affected flow takes the slow path exactly once, re-resolves, and
  /// re-keys.  Returns how many entries were invalidated.
  std::size_t invalidate_path(int path_id);

  /// Drop all entries and invalidations (not the counters).
  void clear();

  const FlowCacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = FlowCacheStats{}; }
  FlowCacheScheme scheme() const noexcept { return scheme_; }
  std::size_t capacity() const noexcept { return entries_.size(); }
  const FlowKeySpec& key_spec() const noexcept { return spec_; }
  const FlowCacheCosts& costs() const noexcept { return costs_; }

  /// Direct-mapped slot index for `key` (exposed so tests can construct
  /// analytic conflict pairs).
  std::size_t slot_of(FlowKey key) const noexcept;

  /// Attach a probe log the classifier fills on every scan this cache
  /// triggers (cleared at the start of each lookup); a capturing Host
  /// reads it to emit the lookup's code-model trace.  Pass nullptr to
  /// detach.
  void set_probe_log(ClassifyProbeLog* log) noexcept { probe_log_ = log; }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Entry {
    FlowKey key = 0;
    int path_id = 0;
    bool has_path = false;  ///< scan found a path (vs memoized "no match")
    bool valid = false;
    bool stale = false;
    // LRU recency list, most recently used at the head.
    std::uint32_t newer = kNone;
    std::uint32_t older = kNone;
  };
  /// One slot of the LRU key -> entry index (open addressing, linear
  /// probing, at most half full).
  struct IndexSlot {
    FlowKey key = 0;
    std::uint32_t entry = kNone;
  };

  Entry* probe(FlowKey key);
  Entry* victim(FlowKey key);
  FlowLookupResult lookup_impl(const PacketClassifier& classifier,
                               std::span<const std::uint8_t> frame,
                               const PathResolver* resolver);
  // LRU bookkeeping.
  std::size_t home_of(FlowKey key) const noexcept;
  void index_erase(FlowKey key) noexcept;
  /// Record a use of `e`: under LRU it becomes the most recently used.
  void touch(Entry& e) noexcept;

  FlowKeySpec spec_;
  FlowCacheScheme scheme_;
  FlowCacheCosts costs_;
  std::vector<Entry> entries_;
  // LRU only.  Entries become invalid only through clear(), so the valid
  // ones are always entries_[0, lru_fill_): the first invalid entry is
  // entries_[lru_fill_], and the least recently used is the list tail.
  std::vector<IndexSlot> index_;
  std::uint32_t lru_fill_ = 0;
  std::uint32_t mru_ = kNone;
  std::uint32_t lru_ = kNone;
  FlowCacheStats stats_;
  ClassifyProbeLog* probe_log_ = nullptr;
};

}  // namespace l96::code
