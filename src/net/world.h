// World: two hosts on an isolated Ethernet with one shared virtual clock —
// the paper's experimental platform (two DEC 3000/600s, Section 4.1).
#pragma once

#include <memory>

#include "net/host.h"
#include "net/wire.h"
#include "xkernel/event.h"

namespace l96::net {

/// Construction-time tuning for a World beyond the wire timing: knobs that
/// size per-connection state so a shard-local core can hold thousands of
/// cheap connections without changing any protocol behaviour.
struct WorldOptions {
  WireParams wire{};
  /// TCP demux-map bucket count for both hosts (power of two).  The
  /// default 64 is the historical table; the sharded fleet engine sizes
  /// this to the core's connection count so demux chains stay O(1).
  std::size_t tcp_conn_buckets = 64;
};

class World {
 public:
  /// Well-known ports start() wires the TCP test program to (the soak
  /// chaos phase re-serves on kTcpServerPort after a server reboot).
  static constexpr std::uint16_t kTcpClientPort = 5000;
  static constexpr std::uint16_t kTcpServerPort = 5001;

  /// Build a world running `kind` with per-side configurations.  (For the
  /// RPC experiments the paper always runs the best configuration on the
  /// server so the reference point stays fixed.)
  World(StackKind kind, const code::StackConfig& client_cfg,
        const code::StackConfig& server_cfg,
        WireParams wire_params = WireParams());

  /// Same, with the full option set.
  World(StackKind kind, const code::StackConfig& client_cfg,
        const code::StackConfig& server_cfg, const WorldOptions& options);

  /// Open the connection / register services and start the first request;
  /// `target_roundtrips` bounds the client's ping-pong.
  void start(std::uint64_t target_roundtrips);

  /// Advance virtual time until `pred()` or `max_us` elapsed; returns
  /// whether the predicate became true.
  bool run_until(xk::PredicateRef pred, std::uint64_t max_us) {
    return events_.run_until(pred, max_us);
  }

  /// Run until the client has completed `n` roundtrips (absolute count).
  bool run_until_roundtrips(std::uint64_t n, std::uint64_t max_us = 0);

  std::uint64_t client_roundtrips() const;

  /// Install a fault plan on the wire (resets counters and replay log).
  void set_fault_plan(const FaultPlan& plan) { wire_.set_fault_plan(plan); }
  const FaultCounters& fault_counters() const noexcept {
    return wire_.fault_counters();
  }
  const std::vector<FaultRecord>& fault_log() const noexcept {
    return wire_.fault_log();
  }

  Host& client() noexcept { return *client_; }
  Host& server() noexcept { return *server_; }
  Wire& wire() noexcept { return wire_; }
  const Wire& wire() const noexcept { return wire_; }
  xk::EventManager& events() noexcept { return events_; }
  StackKind kind() const noexcept { return kind_; }

 private:
  StackKind kind_;
  xk::EventManager events_;
  Wire wire_;
  std::unique_ptr<Host> client_;
  std::unique_ptr<Host> server_;
};

}  // namespace l96::net
