#include "protocols/rulegen.h"

#include <string>

namespace l96::proto {

namespace {

/// xorshift64* — the same generator family the harness samplers use; local
/// state, so rule generation never perturbs any other seeded stream.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed != 0 ? seed : 0x9E3779B97F4A7C15ull) {}
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1Dull;
  }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }
};

using code::ClassifierRule;

// Shared field templates (offsets into the raw frame, ETH header = 14).
constexpr ClassifierRule kEthIpv4{.offset = 12, .size = 2, .mask = 0xFFFF,
                                  .value = 0x0800};
constexpr ClassifierRule kIpVerIhl{.offset = 14, .size = 1, .mask = 0xFF,
                                   .value = 0x45};
constexpr ClassifierRule kIpNoFrag{.offset = 20, .size = 2, .mask = 0x3FFF,
                                   .value = 0x0000};
constexpr ClassifierRule kEthBlast{.offset = 12, .size = 2, .mask = 0xFFFF,
                                   .value = 0x88B5};
constexpr ClassifierRule kBlastOneFrag{.offset = 20, .size = 2,
                                       .mask = 0xFFFF, .value = 0x0001};

ClassifierRule ip_proto(std::uint32_t proto) {
  return {.offset = 23, .size = 1, .mask = 0xFF, .value = proto};
}
ClassifierRule tcp_dst_port(std::uint32_t port) {
  return {.offset = 36, .size = 2, .mask = 0xFFFF, .value = port};
}
ClassifierRule udp_dst_port(std::uint32_t port) {
  return {.offset = 36, .size = 2, .mask = 0xFFFF, .value = port};
}
ClassifierRule ip_src(std::uint32_t addr) {
  return {.offset = 26, .size = 4, .mask = 0xFFFFFFFF, .value = addr};
}
ClassifierRule rpc_chan(std::uint32_t chan) {
  return {.offset = 34, .size = 2, .mask = 0xFFFF, .value = chan};
}
ClassifierRule rpc_proc(std::uint32_t proc) {
  return {.offset = 42, .size = 2, .mask = 0xFFFF, .value = proc};
}

/// One TCP/IP decoy.  Three template families; every family is impossible
/// for harness traffic (TCP to ports >= 7000 from 10.x addresses):
///   0: TCP service pin to a privileged-range destination port (< 7000);
///   1: UDP service pin (fleet frames are always protocol 6);
///   2: TEST-NET source-address match (fleet hosts live in 10.0.0.0/8).
std::vector<ClassifierRule> tcpip_decoy(Rng& rng) {
  switch (rng.below(3)) {
    case 0:
      return {kEthIpv4, kIpVerIhl, kIpNoFrag, ip_proto(6),
              tcp_dst_port(100 + rng.below(6900))};
    case 1:
      return {kEthIpv4, kIpVerIhl, kIpNoFrag, ip_proto(17),
              udp_dst_port(1 + rng.below(65535))};
    default:
      return {kEthIpv4, kIpVerIhl, ip_src(0xCB007100u + rng.below(0x10000))};
  }
}

/// One RPC decoy.  Two families, both impossible for harness traffic:
///   0: BLAST single-fragment frame for a reserved procedure (< 100, the
///      fleet procedure base) on some channel;
///   1: a foreign ethertype (experimental range, never 0x88B5).
std::vector<ClassifierRule> rpc_decoy(Rng& rng) {
  switch (rng.below(2)) {
    case 0:
      return {kEthBlast, kBlastOneFrag, rpc_chan(rng.below(65536)),
              rpc_proc(1 + rng.below(99))};
    default:
      return {{.offset = 12, .size = 2, .mask = 0xFFFF,
               .value = 0x8900u + rng.below(0x100)},
              {.offset = 16, .size = 4, .mask = 0xFFFFFFFF,
               .value = static_cast<std::uint32_t>(rng.next())}};
  }
}

}  // namespace

std::vector<ClassifierRule> real_path_rules(RuleSetKind kind) {
  if (kind == RuleSetKind::kTcpIp) {
    return {kEthIpv4, kIpVerIhl, kIpNoFrag, ip_proto(6)};
  }
  // Single fragment (nfrags == 1), flags without the NACK bit.
  return {kEthBlast, kBlastOneFrag,
          {.offset = 26, .size = 2, .mask = 0x0001, .value = 0x0000}};
}

int real_path_id(RuleSetKind kind) {
  return kind == RuleSetKind::kTcpIp ? 1 : 2;
}

const char* real_path_name(RuleSetKind kind) {
  return kind == RuleSetKind::kTcpIp ? "tcpip_in" : "rpc_in";
}

void add_decoy_paths(code::PacketClassifier& c, RuleSetKind kind,
                     std::size_t decoys, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < decoys; ++i) {
    c.add_path("decoy_" + std::to_string(i),
               kDecoyPathIdBase + static_cast<int>(i),
               kind == RuleSetKind::kTcpIp ? tcpip_decoy(rng)
                                           : rpc_decoy(rng));
  }
}

code::PacketClassifier build_scaled_classifier(RuleSetKind kind,
                                               std::size_t decoys,
                                               std::uint64_t seed) {
  code::PacketClassifier c;
  add_decoy_paths(c, kind, decoys, seed);
  c.add_path(real_path_name(kind), real_path_id(kind),
             real_path_rules(kind));
  return c;
}

}  // namespace l96::proto
