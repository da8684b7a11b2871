// The x-kernel map manager: fixed-key hash table used for demultiplexing.
//
// Two features from the paper are implemented faithfully:
//
//  * A one-entry cache (Section 2.2.3): the most recently resolved entry is
//    checked before hashing, exploiting packet-train locality.  The paper's
//    "conditional inlining" makes the cache *test* three times cheaper than
//    the general lookup; the code model charges instruction counts
//    accordingly, while this class provides the functional behaviour and
//    hit-rate statistics.
//
//  * A lazily-maintained list of non-empty buckets (Section 2.2.1): the
//    table can be traversed by walking only its non-empty buckets, so TCP
//    needs no separate list of open connections.  Removal never touches the
//    list; a bucket that became empty is unlinked the next time a traversal
//    walks past it, which is exactly when the previous non-empty bucket is
//    known.  Traversal cost is therefore proportional to the number of
//    non-empty buckets (plus deferred cleanup), not to the table size.
//
// Entries and buckets carry simulated addresses so lookups can be traced
// into the d-cache model.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "xkernel/simalloc.h"

namespace l96::xk {

struct MapKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend bool operator==(const MapKey&, const MapKey&) = default;
};

struct MapStats {
  std::uint64_t lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t binds = 0;
  std::uint64_t unbinds = 0;
  std::uint64_t traversals = 0;
  std::uint64_t buckets_walked = 0;  ///< list nodes touched during traversals
  std::uint64_t lazy_unlinks = 0;    ///< empty buckets removed during traversal
};

template <typename V>
class Map {
 public:
  /// `nbuckets` must be a power of two.
  Map(SimAlloc& arena, std::size_t nbuckets, bool one_entry_cache = true)
      : arena_(arena), cache_enabled_(one_entry_cache) {
    if (nbuckets == 0 || (nbuckets & (nbuckets - 1)) != 0) {
      throw std::invalid_argument("map buckets must be a power of two");
    }
    buckets_.resize(nbuckets);
    for (auto& b : buckets_) b.sim = arena_.alloc(kBucketBytes);
  }

  ~Map() {
    for (auto& b : buckets_) {
      Entry* e = b.head;
      while (e != nullptr) {
        Entry* n = e->next;
        arena_.free(e->sim, kEntryBytes);
        delete e;
        e = n;
      }
      arena_.free(b.sim, kBucketBytes);
    }
  }

  Map(const Map&) = delete;
  Map& operator=(const Map&) = delete;

  /// Insert or overwrite a binding.
  void bind(const MapKey& key, V value) {
    ++stats_.binds;
    const std::size_t i = index(key);
    Bucket& b = buckets_[i];
    for (Entry* e = b.head; e != nullptr; e = e->next) {
      if (e->key == key) {
        e->value = std::move(value);
        return;
      }
    }
    auto* e = new Entry{key, std::move(value), b.head,
                        arena_.alloc(kEntryBytes)};
    const bool was_empty = (b.head == nullptr);
    b.head = e;
    ++size_;
    if (was_empty && !b.on_list) {
      b.on_list = true;
      b.next_nonempty = nonempty_head_;
      nonempty_head_ = static_cast<int>(i);
    }
  }

  /// Resolve a key.  Simulated addresses touched during the lookup are
  /// appended to `touched` when provided (one-entry cache probe, bucket
  /// head, chain entries).
  std::optional<V> resolve(const MapKey& key,
                           std::vector<SimAddr>* touched = nullptr) {
    ++stats_.lookups;
    if (cache_enabled_ && cache_ != nullptr) {
      if (touched != nullptr) touched->push_back(cache_->sim);
      if (cache_->key == key) {
        ++stats_.cache_hits;
        return cache_->value;
      }
    }
    const std::size_t i = index(key);
    Bucket& b = buckets_[i];
    if (touched != nullptr) touched->push_back(b.sim);
    for (Entry* e = b.head; e != nullptr; e = e->next) {
      if (touched != nullptr) touched->push_back(e->sim);
      if (e->key == key) {
        cache_ = e;
        return e->value;
      }
    }
    return std::nullopt;
  }

  /// Host-side query, outside the paper's modeled lookup: return the
  /// value bound to `key` without counting a lookup in stats() and without
  /// moving the one-entry cache, so the modeled demux (its hit rate, its
  /// traced addresses) is exactly as if the query never ran.  For harness
  /// bookkeeping such as tearing down a known 4-tuple; the protocol's own
  /// demux goes through resolve().
  std::optional<V> find(const MapKey& key) const {
    for (const Entry* e = buckets_[index(key)].head; e != nullptr;
         e = e->next) {
      if (e->key == key) return e->value;
    }
    return std::nullopt;
  }

  /// Remove a binding; returns true when it existed.  The non-empty bucket
  /// list is deliberately NOT updated (lazy removal).
  bool unbind(const MapKey& key) {
    ++stats_.unbinds;
    Bucket& b = buckets_[index(key)];
    Entry** link = &b.head;
    while (*link != nullptr) {
      Entry* e = *link;
      if (e->key == key) {
        *link = e->next;
        if (cache_ == e) cache_ = nullptr;
        arena_.free(e->sim, kEntryBytes);
        delete e;
        --size_;
        return true;
      }
      link = &e->next;
    }
    return false;
  }

  /// Visit every live binding by walking the non-empty bucket list,
  /// unlinking buckets found empty along the way (this is where the lazy
  /// removals are collected — trivial because the previous list node is at
  /// hand).
  void for_each(const std::function<void(const MapKey&, V&)>& fn) {
    ++stats_.traversals;
    int* link = &nonempty_head_;
    while (*link != -1) {
      ++stats_.buckets_walked;
      Bucket& b = buckets_[static_cast<std::size_t>(*link)];
      if (b.head == nullptr) {
        b.on_list = false;
        *link = b.next_nonempty;
        b.next_nonempty = -1;
        ++stats_.lazy_unlinks;
        continue;
      }
      for (Entry* e = b.head; e != nullptr; e = e->next) {
        fn(e->key, e->value);
      }
      link = &b.next_nonempty;
    }
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t bucket_count() const noexcept { return buckets_.size(); }
  /// Non-empty-list length including not-yet-unlinked empty buckets.
  std::size_t list_length() const noexcept {
    std::size_t n = 0;
    for (int i = nonempty_head_; i != -1;
         i = buckets_[static_cast<std::size_t>(i)].next_nonempty) {
      ++n;
    }
    return n;
  }

  const MapStats& stats() const noexcept { return stats_; }
  bool cache_enabled() const noexcept { return cache_enabled_; }

  /// Simulated address of the one-entry cache slot (the inlined cache test
  /// loads this first).
  SimAddr cache_slot_sim() const noexcept {
    return cache_ != nullptr ? cache_->sim : buckets_.front().sim;
  }

 private:
  struct Entry {
    MapKey key;
    V value;
    Entry* next;
    SimAddr sim;
  };
  struct Bucket {
    Entry* head = nullptr;
    int next_nonempty = -1;
    bool on_list = false;
    SimAddr sim = 0;
  };

  static constexpr std::uint64_t kEntryBytes = 48;
  static constexpr std::uint64_t kBucketBytes = 16;  // head + list pointer

  std::size_t index(const MapKey& key) const noexcept {
    std::uint64_t h = key.hi * 0x9E3779B97F4A7C15ULL;
    h ^= key.lo + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
    return static_cast<std::size_t>(h & (buckets_.size() - 1));
  }

  SimAlloc& arena_;
  bool cache_enabled_;
  std::vector<Bucket> buckets_;
  int nonempty_head_ = -1;
  Entry* cache_ = nullptr;
  std::size_t size_ = 0;
  MapStats stats_;
};

}  // namespace l96::xk
