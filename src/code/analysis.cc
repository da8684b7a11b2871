#include "code/analysis.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace l96::code {

FootprintStats footprint_stats(const sim::MachineTrace& trace,
                               const CodeImage& image,
                               std::uint32_t block_bytes) {
  // A trace is mostly straight-line runs of consecutive words.  Collect the
  // runs as word intervals, then sort and merge the few hundred intervals
  // instead of the few thousand PCs.  PCs are word-aligned, so the block of
  // word w is w * 4 / block_bytes.
  struct Span {
    sim::Addr lo = 0, hi = 0;  ///< word indices, inclusive
  };
  std::vector<Span> spans;
  for (const sim::MachineInstr& in : trace) {
    const sim::Addr w = in.pc / 4;
    if (!spans.empty() && w == spans.back().hi + 1) {
      spans.back().hi = w;
    } else {
      spans.push_back({w, w});
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.lo < b.lo; });
  FootprintStats s;
  sim::Addr covered_end = 0;  // one past the last word counted; 0 = none
  for (const Span& sp : spans) {
    const sim::Addr lo = std::max(sp.lo, covered_end);
    if (lo > sp.hi) continue;
    const sim::Addr lo_block = lo * 4 / block_bytes;
    s.words_executed += sp.hi - lo + 1;
    s.blocks_fetched += sp.hi * 4 / block_bytes - lo_block + 1;
    // The block holding the last word already counted is not new.
    if (covered_end != 0 && lo_block == (covered_end - 1) * 4 / block_bytes) {
      --s.blocks_fetched;
    }
    covered_end = sp.hi + 1;
  }
  const std::uint64_t capacity = s.blocks_fetched * (block_bytes / 4);
  s.unused_fraction =
      capacity == 0
          ? 0.0
          : 1.0 - static_cast<double>(s.words_executed) /
                      static_cast<double>(capacity);
  s.static_path_words = image.hot_words();
  return s;
}

std::string footprint_map(const sim::MachineTrace& trace,
                          std::uint32_t icache_bytes,
                          std::uint32_t block_bytes,
                          std::uint32_t columns) {
  const std::uint32_t sets = icache_bytes / block_bytes;
  std::unordered_map<std::uint32_t, std::unordered_set<sim::Addr>> per_set;
  for (const sim::MachineInstr& in : trace) {
    const sim::Addr block = in.pc / block_bytes;
    per_set[static_cast<std::uint32_t>(block % sets)].insert(block);
  }
  std::string out;
  out.reserve(sets + sets / columns + 2);
  for (std::uint32_t s = 0; s < sets; ++s) {
    auto it = per_set.find(s);
    if (it == per_set.end()) {
      out.push_back('.');
    } else if (it->second.size() == 1) {
      out.push_back('+');
    } else {
      out.push_back('#');
    }
    if ((s + 1) % columns == 0) out.push_back('\n');
  }
  return out;
}

}  // namespace l96::code
