// Helpers for recording data-cache traffic at cache-block granularity and
// for tracing map lookups under the conditional-inlining regime.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "code/trace.h"
#include "protocols/stack_code.h"
#include "xkernel/map.h"
#include "xkernel/protocol.h"
#include "xkernel/simalloc.h"

namespace l96::proto {

/// Record one load (or store) per 32-byte cache block of a buffer region —
/// the right granularity for the d-cache model (finer recording would only
/// repeat hits within the same block).
inline void touch_buffer(code::Recorder& rec, xk::SimAddr base,
                         std::size_t len, bool write) {
  if (len == 0) return;
  const xk::SimAddr first = base / 32;
  const xk::SimAddr last = (base + len - 1) / 32;
  for (xk::SimAddr b = first; b <= last; ++b) {
    if (write) {
      rec.store(b * 32, 32);
    } else {
      rec.load(b * 32, 32);
    }
  }
}

/// Traced map lookup under conditional inlining (Section 2.2.3).
///
/// With inline_map_cache_test the one-entry cache test is expanded at the
/// call site (its instructions are part of the caller's dispatch block) and
/// the general map_resolve function is called only on a cache miss.
/// Without it, every lookup calls the general function, paying the call
/// overhead and its internal cache probe.
///
/// With the recorder off every event below is a no-op, so the lookup is
/// the map's own resolve (the same MapStats and one-entry cache movement)
/// without the touched-address scratch list.
template <typename V>
std::optional<V> traced_map_lookup(xk::ProtoCtx& ctx, xk::Map<V>& map,
                                   const xk::MapKey& key,
                                   code::FnId resolve_fn) {
  auto& rec = ctx.rec;
  if (!rec.enabled()) return map.resolve(key);
  const std::uint64_t hits_before = map.stats().cache_hits;
  std::vector<xk::SimAddr> touched;

  if (ctx.config.inline_map_cache_test) {
    auto v = map.resolve(key, &touched);
    const bool cache_hit = map.stats().cache_hits > hits_before;
    if (cache_hit) {
      if (!touched.empty()) rec.load(touched.front());
      return v;
    }
    code::TracedCall t(rec, resolve_fn);
    rec.block(resolve_fn, blk::kMapHash);
    rec.block(resolve_fn, blk::kMapChain);
    for (xk::SimAddr a : touched) rec.load(a);
    if (!v.has_value()) rec.block(resolve_fn, blk::kMapMiss);
    return v;
  }

  code::TracedCall t(rec, resolve_fn);
  auto v = map.resolve(key, &touched);
  const bool cache_hit = map.stats().cache_hits > hits_before;
  rec.block(resolve_fn, blk::kMapCacheProbe);
  if (!cache_hit) {
    rec.block(resolve_fn, blk::kMapHash);
    rec.block(resolve_fn, blk::kMapChain);
  }
  for (xk::SimAddr a : touched) rec.load(a);
  if (!v.has_value()) rec.block(resolve_fn, blk::kMapMiss);
  return v;
}

}  // namespace l96::proto
