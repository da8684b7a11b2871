#include "code/flow_cache.h"

#include <stdexcept>
#include <string_view>

namespace l96::code {

namespace {

/// splitmix64 finalizer: spreads flow keys over direct-mapped slots so
/// structured keys (sequential ports) don't all land in one slot.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t fold_field(FlowKey key, std::uint32_t value,
                         std::uint8_t size) {
  // Shift-concatenate, truncating the value to the field width; the same
  // fold runs for frame-extracted and caller-supplied values so the two
  // key constructions agree.
  const std::uint32_t masked =
      size >= 4 ? value : (value & ((1u << (8 * size)) - 1u));
  return (key << (8 * size)) | masked;
}

/// Copy a scan's work counters into the lookup result and price it:
/// probe_us once, then per_rule_us for every rule the deciding engine
/// actually examined (the tuple engine examines fewer — the cost model
/// follows the engine, not the rule-table size).
void apply_scan(FlowLookupResult& r, const ClassifyScan& scan,
                const FlowCacheCosts& costs) {
  r.scanned = true;
  r.scan_matched = scan.path_id.has_value();
  r.path_id = scan.path_id;
  r.rules_examined = scan.rules_examined;
  r.tuples_probed = scan.tuples_probed;
  r.candidates_verified = scan.candidates_verified;
  r.tuple_engine = scan.tuple_engine;
  r.cost_us = costs.probe_us +
              costs.per_rule_us * static_cast<double>(scan.rules_examined);
}

}  // namespace

std::optional<FlowKey> FlowKeySpec::key_of(
    std::span<const std::uint8_t> frame) const {
  FlowKey key = 0;
  for (const FlowField& f : fields) {
    if (static_cast<std::size_t>(f.offset) + f.size > frame.size()) {
      return std::nullopt;
    }
    std::uint32_t v = 0;
    for (std::uint8_t i = 0; i < f.size; ++i) {
      v = (v << 8) | frame[f.offset + i];
    }
    key = fold_field(key, v, f.size);
  }
  return key;
}

FlowKey FlowKeySpec::key_of_values(
    std::span<const std::uint32_t> values) const {
  FlowKey key = 0;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const std::uint32_t v = i < values.size() ? values[i] : 0;
    key = fold_field(key, v, fields[i].size);
  }
  return key;
}

const char* to_string(FlowCacheScheme s) {
  switch (s) {
    case FlowCacheScheme::kOneBehind: return "one-behind";
    case FlowCacheScheme::kDirectMapped: return "direct";
    case FlowCacheScheme::kLru: return "lru";
  }
  return "?";
}

std::optional<FlowCacheScheme> flow_cache_scheme_from_string(
    std::string_view s) {
  if (s == "one-behind" || s == "onebehind") {
    return FlowCacheScheme::kOneBehind;
  }
  if (s == "direct" || s == "direct-mapped") {
    return FlowCacheScheme::kDirectMapped;
  }
  if (s == "lru") return FlowCacheScheme::kLru;
  return std::nullopt;
}

FlowCache::FlowCache(FlowKeySpec spec, FlowCacheScheme scheme,
                     std::size_t capacity, FlowCacheCosts costs)
    : spec_(std::move(spec)), scheme_(scheme), costs_(costs) {
  if (capacity == 0) {
    throw std::invalid_argument("FlowCache: capacity must be > 0");
  }
  if (scheme_ == FlowCacheScheme::kLru && capacity >= kNone) {
    throw std::invalid_argument("FlowCache: LRU capacity too large");
  }
  entries_.resize(scheme_ == FlowCacheScheme::kOneBehind ? 1 : capacity);
  if (scheme_ == FlowCacheScheme::kLru) {
    std::size_t n = 2;
    while (n < 2 * capacity) n *= 2;
    index_.resize(n);
  }
}

std::size_t FlowCache::slot_of(FlowKey key) const noexcept {
  return static_cast<std::size_t>(mix64(key) % entries_.size());
}

FlowCache::Entry* FlowCache::probe(FlowKey key) {
  switch (scheme_) {
    case FlowCacheScheme::kOneBehind: {
      Entry& e = entries_[0];
      return e.valid && e.key == key ? &e : nullptr;
    }
    case FlowCacheScheme::kDirectMapped: {
      Entry& e = entries_[slot_of(key)];
      return e.valid && e.key == key ? &e : nullptr;
    }
    case FlowCacheScheme::kLru: {
      const std::size_t mask = index_.size() - 1;
      for (std::size_t i = home_of(key);; i = (i + 1) & mask) {
        if (index_[i].entry == kNone) return nullptr;
        if (index_[i].key == key) return &entries_[index_[i].entry];
      }
    }
  }
  return nullptr;
}

FlowCache::Entry* FlowCache::victim(FlowKey key) {
  switch (scheme_) {
    case FlowCacheScheme::kOneBehind:
      return &entries_[0];
    case FlowCacheScheme::kDirectMapped:
      return &entries_[slot_of(key)];
    case FlowCacheScheme::kLru: {
      // The first invalid entry, else the least recently used one; the
      // caller rebinds it to `key`, so index it under `key` now.
      std::uint32_t v = lru_fill_;
      if (v < entries_.size()) {
        ++lru_fill_;
      } else {
        v = lru_;
        index_erase(entries_[v].key);
      }
      const std::size_t mask = index_.size() - 1;
      std::size_t i = home_of(key);
      while (index_[i].entry != kNone) i = (i + 1) & mask;
      index_[i] = IndexSlot{key, v};
      return &entries_[v];
    }
  }
  return &entries_[0];
}

std::size_t FlowCache::home_of(FlowKey key) const noexcept {
  return static_cast<std::size_t>(mix64(key) & (index_.size() - 1));
}

void FlowCache::index_erase(FlowKey key) noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = home_of(key);
  while (index_[hole].key != key || index_[hole].entry == kNone) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull every later member of the probe run
  // whose home is not between the hole and its slot into the hole.
  for (std::size_t j = (hole + 1) & mask; index_[j].entry != kNone;
       j = (j + 1) & mask) {
    const std::size_t home = home_of(index_[j].key);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole].entry = kNone;
}

void FlowCache::touch(Entry& e) noexcept {
  if (scheme_ != FlowCacheScheme::kLru) return;
  const auto i = static_cast<std::uint32_t>(&e - entries_.data());
  if (mru_ == i) return;
  if (e.newer != kNone) {  // linked and not the head: unlink
    entries_[e.newer].older = e.older;
    if (e.older != kNone) {
      entries_[e.older].newer = e.newer;
    } else {
      lru_ = e.newer;
    }
  }
  e.newer = kNone;
  e.older = mru_;
  if (mru_ != kNone) entries_[mru_].newer = i;
  mru_ = i;
  if (lru_ == kNone) lru_ = i;
}

FlowLookupResult FlowCache::lookup(const PacketClassifier& classifier,
                                   std::span<const std::uint8_t> frame) {
  return lookup_impl(classifier, frame, nullptr);
}

FlowLookupResult FlowCache::lookup(const PacketClassifier& classifier,
                                   std::span<const std::uint8_t> frame,
                                   const PathResolver& resolver) {
  return lookup_impl(classifier, frame, &resolver);
}

FlowLookupResult FlowCache::lookup_impl(const PacketClassifier& classifier,
                                        std::span<const std::uint8_t> frame,
                                        const PathResolver* resolver) {
  ++stats_.lookups;
  if (probe_log_ != nullptr) probe_log_->clear();
  FlowLookupResult r;

  const std::optional<FlowKey> key = spec_.key_of(frame);
  if (!key.has_value()) {
    // No key: classify directly, nothing to memoize.
    ++stats_.unkeyed;
    const ClassifyScan scan = classifier.classify_scan(frame, probe_log_);
    apply_scan(r, scan, costs_);
    if (!scan.path_id.has_value()) ++stats_.unmatched_scans;
    stats_.rules_examined += scan.rules_examined;
    stats_.cost_us += r.cost_us;
    return r;
  }

  Entry* e = probe(*key);
  if (e != nullptr && !e->stale) {
    ++stats_.hits;
    touch(*e);
    r.cache_hit = true;
    r.path_id = e->has_path ? std::optional<int>(e->path_id) : std::nullopt;
    r.cost_us = costs_.hit_us;
    stats_.cost_us += r.cost_us;
    return r;
  }

  // Miss, or a hit on an entry invalidated by connection churn (stale).
  // Either way the full linear scan runs; a stale hit additionally fails
  // the inlined composite's guard, so the caller must route this packet
  // through the standalone slow path.
  const bool stale = e != nullptr;
  if (stale) {
    ++stats_.stale_hits;
    r.cache_hit = true;
    r.stale = true;
  } else {
    ++stats_.misses;
  }

  const ClassifyScan scan = classifier.classify_scan(frame, probe_log_);
  std::optional<int> bound = scan.path_id;
  if (resolver != nullptr && scan.path_id.has_value()) {
    const int b = (*resolver)(*key);
    if (b < 0) {
      // No path to bind right now (e.g. the LB pool is empty): price the
      // scan, report no path, and leave the entry untouched so the next
      // packet on this flow retries the resolution.
      apply_scan(r, scan, costs_);
      r.path_id = std::nullopt;
      ++stats_.unmatched_scans;
      stats_.rules_examined += scan.rules_examined;
      stats_.cost_us += r.cost_us;
      return r;
    }
    bound = b;
  }
  apply_scan(r, scan, costs_);
  r.path_id = bound;
  if (!scan.path_id.has_value()) ++stats_.unmatched_scans;
  stats_.rules_examined += scan.rules_examined;
  stats_.cost_us += r.cost_us;

  if (e == nullptr) e = victim(*key);
  e->key = *key;
  e->path_id = bound.value_or(0);
  e->has_path = bound.has_value();
  e->valid = true;
  e->stale = false;
  touch(*e);
  return r;
}

void FlowCache::invalidate(FlowKey key) {
  if (Entry* e = probe(key)) e->stale = true;
}

std::size_t FlowCache::invalidate_path(int path_id) {
  std::size_t n = 0;
  for (Entry& e : entries_) {
    if (e.valid && !e.stale && e.has_path && e.path_id == path_id) {
      e.stale = true;
      ++n;
    }
  }
  return n;
}

void FlowCache::clear() {
  for (Entry& e : entries_) e = Entry{};
  for (IndexSlot& slot : index_) slot = IndexSlot{};
  lru_fill_ = 0;
  mru_ = kNone;
  lru_ = kNone;
}

}  // namespace l96::code
