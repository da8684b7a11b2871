// The classifier's code model and its measured pricing.
//
// register_classifier_code puts the flow-cache probe and the tuple-space
// lookup into the code registry as first-class kPath functions, so the
// classification cost is lowered, replayed, and cache-attributed exactly
// like protocol code.  measure_classifier_costs fits FlowCacheCosts
// coefficients from those replays.  These tests pin the registration
// surface, the trace shapes each activation emits, and the fitted
// coefficients' invariants (sanity, provenance flag, determinism).
#include <gtest/gtest.h>


#include "code/classifier.h"
#include "code/flow_cache.h"
#include "code/model.h"
#include "code/trace.h"
#include "harness/classify.h"
#include "protocols/rulegen.h"
#include "protocols/stack_code.h"

namespace l96 {
namespace {

code::CodeRegistry classifier_registry(const code::StackConfig& cfg) {
  code::CodeRegistry reg;
  proto::register_common_code(reg, cfg);
  proto::register_tcpip_code(reg, cfg);
  proto::register_classifier_code(reg, cfg);
  return reg;
}

TEST(ClassifierCode, RegistersAllSixFunctions) {
  const auto reg = classifier_registry(code::StackConfig::Std());
  for (const char* name :
       {"classify_cache", "classify_lookup", "classify_hash",
        "classify_probe", "classify_verify", "classify_linear"}) {
    EXPECT_NO_THROW(reg.require(name)) << name;
  }
}

// Count events in `t` of kind `k` on function `fn` (kInvalidFn = any).
std::size_t count_events(const code::PathTrace& t, code::EventKind k,
                         code::FnId fn = code::kInvalidFn) {
  std::size_t n = 0;
  for (const auto& e : t.events) {
    if (e.kind == k && (fn == code::kInvalidFn || e.fn == fn)) ++n;
  }
  return n;
}

TEST(ClassifierCode, TraceShapesMatchTheActivations) {
  const auto reg = classifier_registry(code::StackConfig::Std());
  const auto lookup = reg.require("classify_lookup");
  const auto cache = reg.require("classify_cache");
  const auto c = proto::build_scaled_classifier(proto::RuleSetKind::kTcpIp,
                                                /*decoys=*/64, /*seed=*/1);
  ASSERT_TRUE(c.tuple_active());
  const auto frame = harness::classifier_match_frame(net::StackKind::kTcpIp);
  code::ClassifyProbeLog log;
  const auto scan = c.classify_scan(frame, &log);
  ASSERT_TRUE(scan.path_id.has_value());
  const auto entry = proto::flow_cache_entry_addr(0);

  // Fresh hit: the cache probe answers — no lookup call, no store, one
  // load of the entry.
  {
    code::PathTrace t;
    code::Recorder rec;
    rec.enable(&t);
    code::FlowLookupResult lr;
    lr.path_id = scan.path_id;
    lr.cache_hit = true;
    proto::trace_classification(rec, reg, lr, {}, entry);
    rec.disable();
    EXPECT_EQ(count_events(t, code::EventKind::kCall, cache), 1u);
    EXPECT_EQ(count_events(t, code::EventKind::kCall, lookup), 0u);
    EXPECT_EQ(count_events(t, code::EventKind::kStore), 0u);
    EXPECT_GE(count_events(t, code::EventKind::kLoad), 1u);
  }

  // Miss: probe, full scan, then the memoizing store of the entry.
  {
    code::PathTrace t;
    code::Recorder rec;
    rec.enable(&t);
    code::FlowLookupResult lr;
    lr.path_id = scan.path_id;
    lr.scanned = true;
    lr.scan_matched = true;
    lr.rules_examined = scan.rules_examined;
    lr.tuples_probed = scan.tuples_probed;
    lr.candidates_verified = scan.candidates_verified;
    lr.tuple_engine = scan.tuple_engine;
    proto::trace_classification(rec, reg, lr, log, entry);
    rec.disable();
    EXPECT_EQ(count_events(t, code::EventKind::kCall, cache), 1u);
    EXPECT_EQ(count_events(t, code::EventKind::kCall, lookup), 1u);
    EXPECT_GE(count_events(t, code::EventKind::kStore), 1u);
  }

  // Unkeyed frame: bare scan, no cache function at all.
  {
    code::PathTrace t;
    code::Recorder rec;
    rec.enable(&t);
    code::FlowLookupResult lr;
    lr.path_id = scan.path_id;
    lr.scanned = true;
    lr.scan_matched = true;
    lr.rules_examined = scan.rules_examined;
    lr.tuples_probed = scan.tuples_probed;
    lr.candidates_verified = scan.candidates_verified;
    lr.tuple_engine = scan.tuple_engine;
    proto::trace_classification(rec, reg, lr, log, std::nullopt);
    rec.disable();
    EXPECT_EQ(count_events(t, code::EventKind::kCall, cache), 0u);
    EXPECT_EQ(count_events(t, code::EventKind::kCall, lookup), 1u);
  }
}

TEST(ClassifierCode, MeasuredCostsAreSaneUnderEveryLayout) {
  for (const auto& cfg :
       {code::StackConfig::Std(), code::StackConfig::Bad(),
        code::StackConfig::Clo(), code::StackConfig::All()}) {
    harness::ClassifierCostSpec spec;
    spec.cfg = cfg;
    spec.rules = 96;
    const auto m = harness::measure_classifier_costs(spec);
    SCOPED_TRACE(cfg.name);
    EXPECT_TRUE(m.costs.measured);
    EXPECT_GE(m.costs.hit_us, 0.0);
    EXPECT_GE(m.costs.probe_us, 0.0);
    EXPECT_GE(m.costs.per_rule_us, 0.0);
    // A hit skips the whole scan: it must be cheaper than either miss.
    EXPECT_LT(m.hit.tp_us, m.miss_match.tp_us);
    EXPECT_LT(m.hit.tp_us, m.miss_nomatch.tp_us);
    EXPECT_EQ(m.num_paths, 97u);
    EXPECT_TRUE(m.tuple_engine);
    EXPECT_GT(m.scan_match.rules_examined, 0u);
    EXPECT_TRUE(m.scan_match.path_id.has_value());
    // The nomatch frame's foreign ethertype hashes into no occupied
    // bucket: the tuple engine rejects it having examined zero rules.
    EXPECT_FALSE(m.scan_nomatch.path_id.has_value());
  }
}

TEST(ClassifierCode, MeasurementIsBitwiseDeterministic) {
  harness::ClassifierCostSpec spec;
  spec.cfg = code::StackConfig::All();
  spec.rules = 256;
  const auto a = harness::measure_classifier_costs(spec);
  const auto b = harness::measure_classifier_costs(spec);
  EXPECT_EQ(a.costs.hit_us, b.costs.hit_us);
  EXPECT_EQ(a.costs.probe_us, b.costs.probe_us);
  EXPECT_EQ(a.costs.per_rule_us, b.costs.per_rule_us);
  EXPECT_EQ(a.hit.tp_us, b.hit.tp_us);
  EXPECT_EQ(a.miss_match.tp_us, b.miss_match.tp_us);
  EXPECT_EQ(a.miss_nomatch.tp_us, b.miss_nomatch.tp_us);
}

TEST(ClassifierCode, LinearAndTupleEnginesBothPriceable) {
  // Forcing either engine still yields a valid fit; the tuple engine's
  // per-rule slope prices less marginal work because its nomatch scan
  // examines far fewer rules.
  harness::ClassifierCostSpec spec;
  spec.cfg = code::StackConfig::Std();
  spec.rules = 256;
  spec.engine = code::PacketClassifier::Engine::kLinear;
  const auto lin = harness::measure_classifier_costs(spec);
  spec.engine = code::PacketClassifier::Engine::kTuple;
  const auto tup = harness::measure_classifier_costs(spec);
  EXPECT_FALSE(lin.tuple_engine);
  EXPECT_TRUE(tup.tuple_engine);
  EXPECT_GT(lin.scan_nomatch.rules_examined,
            10 * tup.scan_nomatch.rules_examined);
  // The decision itself is engine-independent.
  EXPECT_EQ(lin.scan_match.path_id, tup.scan_match.path_id);
}

TEST(ClassifierCode, MissProfilesAttributeClassifierOwners) {
  harness::ClassifierCostSpec spec;
  spec.cfg = code::StackConfig::All();
  spec.rules = 256;
  spec.profile_misses = true;
  const auto m = harness::measure_classifier_costs(spec);
  ASSERT_NE(m.miss_nomatch.miss_cold, nullptr);
  bool classifier_owner_seen = false;
  for (const auto& row : m.miss_nomatch.miss_cold->icache.owners) {
    if (row.name.rfind("classify_", 0) == 0 && row.misses > 0) {
      classifier_owner_seen = true;
    }
  }
  EXPECT_TRUE(classifier_owner_seen)
      << "no classify_* owner charged any i-cache miss in the cold "
         "nomatch replay";
}

}  // namespace
}  // namespace l96
