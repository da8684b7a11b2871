// Rendering of sim::MissProfile snapshots: the `l96.missmap.v1` JSON
// section attached to sweep rows, and the text tables the missmap CLI
// prints.
//
// JSON shape (schema "l96.missmap.v1"):
//   {"schema":"l96.missmap.v1",
//    "client":{"cold":{...},"steady":{...}},
//    "server":{"cold":{...},"steady":{...}}}
// where each replay object holds, per cache ("icache"/"dcache"):
//   totals (misses/repl_misses/stall_cycles/mcpi_contrib),
//   "functions": per-owner rows with miss counts and the owner's mCPI
//   contribution (stall_cycles / replayed instructions),
//   "conflicts": the top-N (victim <- evictor) pairs, each counting the
//   replacement misses the victim suffered from the evictor's
//   displacements, plus "conflicts_total" so truncation is visible, and
//   "sets": the per-set miss histogram with distinct-owner occupancy.
// All orderings come from MissProfile's sorted snapshot, so emission is
// byte-deterministic for a given capture (tested).
#pragma once

#include <cstdint>
#include <iosfwd>

#include "harness/experiment.h"
#include "harness/json.h"

namespace l96::harness {

/// One profiled replay as JSON.  `instructions` is the replayed trace
/// length (denominator for mCPI contributions); `top_conflicts` bounds the
/// emitted conflict rows per cache (the full count stays visible via
/// "conflicts_total").
Json miss_profile_json(const sim::MissProfile& p, std::uint64_t instructions,
                       std::size_t top_conflicts = 16);

/// The full `l96.missmap.v1` section for one config's measurement.  Sides
/// or replays without profiles (profile_misses unset) are omitted; with no
/// profiles at all the section still carries the schema field.
Json missmap_json(const ConfigResult& r, std::size_t top_conflicts = 16);

/// Text table of one cache section: top-N owner rows (misses, replacement
/// split, mCPI contribution) followed by the top-N conflict pairs.
void print_miss_section(std::ostream& os, const sim::MissProfile::Section& s,
                        std::uint64_t instructions, std::size_t top = 10);

}  // namespace l96::harness
