// Deterministic synthetic rule sets for classification at scale.
//
// A production box classifies against thousands of paths, not the one
// hand-written fast-path rule list a Host registers by default.  The
// generator grows a classifier to N *decoy* paths drawn from a small set of
// field-template families over the real TCP/IP+RPC frame formats — so the
// tuple-space engine sees a realistic signature distribution (many paths,
// few templates) — while guaranteeing that no decoy can ever match the
// traffic the fleet harness actually generates (decoy port/proc/address
// values are drawn from ranges the harness never uses).  Decoys register
// *before* the real path, giving them higher priority, so a linear scan
// must wade through every decoy on every packet — the worst case whose
// cost the analytic per_rule_us model understated.
//
// Everything is seeded and uses a local xorshift64* stream: the same
// (kind, decoys, seed) triple always yields the same classifier, byte for
// byte, which the determinism checks in bench_fleet's classifier section
// rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "code/classifier.h"

namespace l96::proto {

enum class RuleSetKind : std::uint8_t { kTcpIp, kRpc };

/// The real inbound fast-path rules — the single source of truth shared
/// with net::Host's default classifier (factored out of host.cc so the
/// scaled classifier's real path can never drift from the default one).
/// TCP/IP: ethertype IPv4, version/IHL 0x45, not fragmented, protocol TCP.
/// RPC: ethertype BLAST, single-fragment data message, not a NACK.
std::vector<code::ClassifierRule> real_path_rules(RuleSetKind kind);
/// Path id / name net::Host registers the real path under (1 "tcpip_in",
/// 2 "rpc_in").
int real_path_id(RuleSetKind kind);
const char* real_path_name(RuleSetKind kind);

/// Append `decoys` synthetic paths (ids from kDecoyPathIdBase, names
/// "decoy_<i>") to `c`.  Decoys never match harness traffic: TCP/IP decoys
/// pin destination ports to [100, 6999] (the fleet uses ports >= 7000),
/// use non-TCP protocol numbers, or match TEST-NET source addresses; RPC
/// decoys pin MSELECT procedures below 100 (the fleet procedure base) or
/// foreign ethertypes.
inline constexpr int kDecoyPathIdBase = 1000;
void add_decoy_paths(code::PacketClassifier& c, RuleSetKind kind,
                     std::size_t decoys, std::uint64_t seed);

/// A full scaled classifier: `decoys` synthetic paths registered first
/// (higher priority — the linear-scan worst case for real traffic), then
/// the real fast path.  With decoys == 0 this is exactly the default
/// net::Host classifier.
code::PacketClassifier build_scaled_classifier(RuleSetKind kind,
                                               std::size_t decoys,
                                               std::uint64_t seed);

}  // namespace l96::proto
