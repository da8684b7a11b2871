// Post-hoc analyses of lowered traces and code images: the i-cache
// footprint statistics behind Table 9 ("unused i-cache bandwidth" and
// static path size) and the ASCII footprint maps of Figure 2.
#pragma once

#include <cstdint>
#include <string>

#include "code/image.h"
#include "sim/instr.h"

namespace l96::code {

/// Table 9 inputs for one configuration.
struct FootprintStats {
  /// Distinct i-cache blocks fetched while executing the trace.
  std::uint64_t blocks_fetched = 0;
  /// Distinct instruction words executed within those blocks.
  std::uint64_t words_executed = 0;
  /// Fraction of fetched block capacity never executed (Table 9 "unused").
  double unused_fraction = 0.0;
  /// Static size (instructions) of the executed functions' mainline path
  /// (the code a clone would carry).
  std::uint64_t static_path_words = 0;
};

/// Compute fetched-block utilisation of a lowered machine trace (PCs are
/// word-aligned).  `static_path_words` is taken from the image's hot
/// segment.
FootprintStats footprint_stats(const sim::MachineTrace& trace,
                               const CodeImage& image,
                               std::uint32_t block_bytes = 32);

/// Render the i-cache occupancy of a machine trace as an ASCII map: one
/// character per cache set, '#' = set fetched by >1 distinct block
/// (conflict), '+' = exactly one block, '.' = untouched.  Reproduces the
/// visual story of Figure 2.
std::string footprint_map(const sim::MachineTrace& trace,
                          std::uint32_t icache_bytes = 8 * 1024,
                          std::uint32_t block_bytes = 32,
                          std::uint32_t columns = 64);

}  // namespace l96::code
