// The checked-in manifest of every schema-versioned JSON section the
// harness and benches emit.
//
// A section name is the middle of the wire schema string: ("fleet", 2)
// names `l96.fleet.v2`.  emit_section() refuses to build a section that is
// not listed here, so adding a new surface (or bumping a version) is an
// explicit, reviewable edit to this file — and the regression test in
// tests/test_sections.cc cross-checks that every emitter produces exactly
// the schema the manifest promises for it.
#pragma once

#include <string_view>

namespace l96::harness {

struct SectionInfo {
  std::string_view name;      ///< schema middle: "fleet" -> l96.fleet.vN
  int version;                ///< schema suffix: 2 -> .v2
  std::string_view producer;  ///< the emitter that owns this section
};

/// Every l96.*.vN section in the repo, one row per (name, version).
inline constexpr SectionInfo kSectionManifest[] = {
    {"sweep", 1, "harness::sweep_json"},
    {"fleet", 2, "harness::fleet_json"},
    {"classifier", 1, "bench_fleet (classifier section)"},
    {"missmap", 1, "harness::missmap_json"},
    {"recovery", 1, "harness::recovery_json"},
    {"burst", 1, "bench_fleet (burst section)"},
    {"fault", 2, "bench_paper (fault section)"},
    {"shard", 1, "harness::shard_json"},
    {"lb", 2, "harness::lb_json"},
    {"soak", 1, "harness::run(SoakRunSpec)"},
};

/// Manifest lookup; nullptr when (name, version) is not a known section.
const SectionInfo* find_section(std::string_view name, int version) noexcept;

}  // namespace l96::harness
