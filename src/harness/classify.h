// Measured classifier pricing: replace the analytic FlowCacheCosts
// constants with coefficients fitted from simulated-cache replays of the
// classification code itself.
//
// The flow-cache lookup model (code/flow_cache.h) prices a hit at hit_us
// and a miss at probe_us + per_rule_us * rules_examined.  The historical
// defaults are Jain-style constants — fine for scheme comparisons over a
// handful of hand-written rules, but a mispricing at production scale: the
// real cost of scanning thousands of rules depends on how much of the rule
// table and probe machinery the i/d-caches hold, which is exactly what the
// rest of the repo measures for protocol code and the constants ignore.
// FlowCacheCosts is the repo's one classification cost model and this is
// how it is measured: single-roundtrip Te (combine_sides) keeps the paper's
// zero-overhead classifier, and bench_fleet's classifier section prices
// PIN/ALL's break-even against CLO from these measurements.
//
// measure_classifier_costs() closes the gap with the same methodology the
// protocol paths use: register the classifier's code model
// (proto::register_classifier_code) alongside the stack, synthesize the
// three canonical lookup activations —
//
//   hit      : cache probe answers, no scan
//   match    : cache miss, scan ends at the real fast path
//   nomatch  : cache miss, scan rejects every rule set
//
// — as recorded traces (the same trace_classification emission a capturing
// net::Host produces), lower all three under ONE image built from the
// match activation, replay them through the simulated memory hierarchy
// (harness::measure_side), and fit
//
//   hit_us      = cost(hit)
//   per_rule_us = (cost(nomatch) - cost(match)) / (rules(nomatch) - rules(match))
//   probe_us    = cost(match) - per_rule_us * rules(match)
//
// clamped at zero.  The fit is a pure function of the spec: same spec,
// byte-identical costs, regardless of worker count or run order.
#pragma once

#include <cstdint>
#include <vector>

#include "code/classifier.h"
#include "code/flow_cache.h"
#include "harness/experiment.h"

namespace l96::harness {

/// What to measure: a scaled classifier (protocols/rulegen.h) for one
/// stack kind under one configuration and machine.
struct ClassifierCostSpec {
  net::StackKind kind = net::StackKind::kTcpIp;
  /// Configuration the lookup code is lowered under (layout treatment and
  /// minor opts change the classifier's placement and block costs too).
  code::StackConfig cfg;
  /// Decoy paths ahead of the real fast path (0 = the default hand-written
  /// classifier) and the rule-generator seed.
  std::size_t rules = 0;
  std::uint64_t rule_seed = 1;
  /// Engine the scans run under; kAuto applies the size/degeneracy policy.
  code::PacketClassifier::Engine engine =
      code::PacketClassifier::Engine::kAuto;
  MachineParams params = MachineParams::defaults();
  /// Attach sim::MissProfiler to every replay (miss_cold / miss_steady on
  /// each SideMeasurement) for classifier-owner attribution checks.
  bool profile_misses = false;
};

/// The fitted costs plus everything they were fitted from, so benches can
/// report (and exit-enforce invariants over) the raw measurements.
struct ClassifierCostMeasurement {
  code::FlowCacheCosts costs;        ///< fitted; costs.measured == true
  SideMeasurement hit;               ///< cache-hit activation replay
  SideMeasurement miss_match;        ///< miss + scan matching the real path
  SideMeasurement miss_nomatch;      ///< miss + scan rejecting everything
  code::ClassifyScan scan_match;     ///< work counters behind miss_match
  code::ClassifyScan scan_nomatch;   ///< work counters behind miss_nomatch
  std::size_t num_paths = 0;
  std::size_t num_tuples = 0;
  bool tuple_engine = false;         ///< engine that decided the scans
};

/// Measure and fit.  Throws std::logic_error if the synthesized frames stop
/// matching the rule generator's real-path guarantee.
ClassifierCostMeasurement measure_classifier_costs(
    const ClassifierCostSpec& spec);

/// The canonical probe frames the measurement classifies: a 64-byte frame
/// that matches the real fast path of `kind` but no generated decoy, and
/// one (foreign ethertype) that matches nothing.  Exposed for the
/// differential fuzz tests and bench_fleet's classifier section.
std::vector<std::uint8_t> classifier_match_frame(net::StackKind kind);
std::vector<std::uint8_t> classifier_nomatch_frame();

}  // namespace l96::harness
