#include "harness/classify.h"

#include <algorithm>
#include <stdexcept>

#include "code/trace.h"
#include "protocols/rulegen.h"
#include "protocols/stack_code.h"

namespace l96::harness {

namespace {

void put16(std::vector<std::uint8_t>& f, std::size_t off, std::uint32_t v) {
  f[off] = static_cast<std::uint8_t>(v >> 8);
  f[off + 1] = static_cast<std::uint8_t>(v);
}

void put32(std::vector<std::uint8_t>& f, std::size_t off, std::uint32_t v) {
  f[off] = static_cast<std::uint8_t>(v >> 24);
  f[off + 1] = static_cast<std::uint8_t>(v >> 16);
  f[off + 2] = static_cast<std::uint8_t>(v >> 8);
  f[off + 3] = static_cast<std::uint8_t>(v);
}

/// A FlowLookupResult describing a cache miss whose scan was `scan` — the
/// shape net::Host hands trace_classification after a real lookup.
code::FlowLookupResult miss_result(const code::ClassifyScan& scan) {
  code::FlowLookupResult lr;
  lr.path_id = scan.path_id;
  lr.scanned = true;
  lr.scan_matched = scan.path_id.has_value();
  lr.rules_examined = scan.rules_examined;
  lr.tuples_probed = scan.tuples_probed;
  lr.candidates_verified = scan.candidates_verified;
  lr.tuple_engine = scan.tuple_engine;
  return lr;
}

}  // namespace

std::vector<std::uint8_t> classifier_match_frame(net::StackKind kind) {
  std::vector<std::uint8_t> f(64, 0);
  if (kind == net::StackKind::kTcpIp) {
    put16(f, 12, 0x0800);        // ethertype IPv4
    f[14] = 0x45;                // version/IHL
    put16(f, 20, 0x0000);        // not fragmented
    f[23] = 6;                   // protocol TCP (rejects the UDP decoys)
    put32(f, 26, 0x0A000002u);   // src 10.0.0.2 (rejects TEST-NET decoys)
    put16(f, 34, 10000);         // sport: fleet client port base
    put16(f, 36, 7000);          // dport: fleet server port (> decoy range)
  } else {
    put16(f, 12, 0x88B5);        // ethertype BLAST
    put16(f, 20, 0x0001);        // single fragment
    put16(f, 26, 0x0000);        // flags, NACK bit clear
    put16(f, 34, 1);             // channel
    put16(f, 42, 100);           // procedure: fleet base (> decoy range)
  }
  return f;
}

std::vector<std::uint8_t> classifier_nomatch_frame() {
  std::vector<std::uint8_t> f(64, 0);
  put16(f, 12, 0x86DD);  // IPv6: no real path or decoy family accepts it
  return f;
}

ClassifierCostMeasurement measure_classifier_costs(
    const ClassifierCostSpec& spec) {
  // The registry a scaled-classifier Host would carry: full stack code (the
  // image declares the inlined paths from it) plus the lookup's own
  // functions.
  code::CodeRegistry reg;
  proto::register_common_code(reg, spec.cfg);
  if (spec.kind == net::StackKind::kTcpIp) {
    proto::register_tcpip_code(reg, spec.cfg);
  } else {
    proto::register_rpc_code(reg, spec.cfg);
  }
  proto::register_classifier_code(reg, spec.cfg);

  const proto::RuleSetKind rsk = spec.kind == net::StackKind::kTcpIp
                                     ? proto::RuleSetKind::kTcpIp
                                     : proto::RuleSetKind::kRpc;
  code::PacketClassifier cls =
      proto::build_scaled_classifier(rsk, spec.rules, spec.rule_seed);
  cls.set_engine(spec.engine);

  const std::vector<std::uint8_t> match = classifier_match_frame(spec.kind);
  const std::vector<std::uint8_t> nomatch = classifier_nomatch_frame();

  ClassifierCostMeasurement out;
  out.num_paths = cls.num_paths();
  out.num_tuples = cls.num_tuples();
  out.tuple_engine = cls.tuple_active();

  code::ClassifyProbeLog log_match;
  out.scan_match = cls.classify_scan(match, &log_match);
  code::ClassifyProbeLog log_nomatch;
  out.scan_nomatch = cls.classify_scan(nomatch, &log_nomatch);
  if (!out.scan_match.path_id.has_value() ||
      *out.scan_match.path_id != proto::real_path_id(rsk)) {
    throw std::logic_error(
        "measure_classifier_costs: match frame no longer selects the real "
        "fast path (rule generator / frame synthesis drifted)");
  }
  if (out.scan_nomatch.path_id.has_value()) {
    throw std::logic_error(
        "measure_classifier_costs: nomatch frame matched a path (rule "
        "generator / frame synthesis drifted)");
  }

  // The three canonical activations, recorded exactly as a capturing Host
  // emits them (protocols/stack_code.h trace_classification).  One shared
  // cache-entry address: the lookup code is the same whichever slot the
  // flow hashes to.
  const std::uint64_t entry = proto::flow_cache_entry_addr(0);
  code::Recorder rec;
  code::PathTrace t_hit, t_match, t_nomatch;

  {
    code::FlowLookupResult lr;
    lr.path_id = proto::real_path_id(rsk);
    lr.cache_hit = true;
    rec.enable(&t_hit);
    proto::trace_classification(rec, reg, lr, {}, entry);
    rec.disable();
  }
  {
    rec.enable(&t_match);
    proto::trace_classification(rec, reg, miss_result(out.scan_match),
                                log_match, entry);
    rec.disable();
  }
  {
    rec.enable(&t_nomatch);
    proto::trace_classification(rec, reg, miss_result(out.scan_nomatch),
                                log_nomatch, entry);
    rec.disable();
  }

  // One image for all three replays, laid out from the match activation
  // (the mainline), so hit/match/nomatch differ only in the code they
  // execute — the same off-profile discipline the slow-path measurements
  // use.
  MeasureSpec ms;
  ms.kind = spec.kind;
  ms.cfg = spec.cfg;
  ms.registry = &reg;
  ms.profile = &t_match;
  ms.split = 0;
  ms.seed_offset = 1;  // server-side convention: classification runs there
  ms.params = spec.params;
  ms.profile_misses = spec.profile_misses;

  ms.trace = &t_hit;
  out.hit = measure_side(ms);
  ms.trace = &t_match;
  out.miss_match = measure_side(ms);
  ms.trace = &t_nomatch;
  out.miss_nomatch = measure_side(ms);

  // Two-point fit of the lookup model (hit -> hit_us, miss -> probe_us +
  // per_rule_us * rules).  rules(nomatch) != rules(match) for every
  // generated rule set — the match scan always verifies the real path's
  // rules, the nomatch scan rejects at the first rule (linear) or probes
  // empty buckets (tuple).
  const double c_hit = out.hit.tp_us;
  const double c_match = out.miss_match.tp_us;
  const double c_nomatch = out.miss_nomatch.tp_us;
  const double r_match = static_cast<double>(out.scan_match.rules_examined);
  const double r_nomatch =
      static_cast<double>(out.scan_nomatch.rules_examined);
  double per_rule = 0.0;
  if (r_nomatch != r_match) {
    per_rule = std::max(0.0, (c_nomatch - c_match) / (r_nomatch - r_match));
  }
  out.costs.hit_us = c_hit;
  out.costs.per_rule_us = per_rule;
  out.costs.probe_us = std::max(0.0, c_match - per_rule * r_match);
  out.costs.measured = true;
  return out;
}

}  // namespace l96::harness
