// run_soak: chaos soak for the full stacks.
//
// Drives the TCP/IP or RPC world for thousands of roundtrips under a
// deterministic FaultPlan, with sequence-tagged payloads verified end to
// end, then tears the session down and checks that nothing leaked: zero
// pending events in the EventManager, zero live connections / busy
// channels, empty reassembly maps, and wire frame conservation.  The
// whole run is a pure function of the spec (virtual time, seeded faults),
// so a failing report reproduces byte-identically from (seed, plan).
#pragma once

#include <cstdint>
#include <string>

#include "code/config.h"
#include "net/fault.h"
#include "net/world.h"

namespace l96::harness {

struct SoakSpec {
  net::StackKind kind = net::StackKind::kTcpIp;
  code::StackConfig client_cfg = code::StackConfig::Std();
  code::StackConfig server_cfg = code::StackConfig::Std();
  net::FaultPlan plan;
  std::uint64_t roundtrips = 5000;
  std::size_t msg_bytes = 32;
  /// 0 = derive a generous bound from the roundtrip count.
  std::uint64_t max_virtual_us = 0;
  /// Close the session after the run and require a clean teardown.
  bool teardown = true;
  /// Chaos phase: inject one 100 ms link blackout at the one-third mark
  /// and (TCP only) one 200 ms server crash/reboot at the two-thirds mark.
  /// The TCP client survives via keepalive probing of the silent peer plus
  /// TcpTest reconnect; the RPC soak exercises the blackout only (the
  /// channel protocol's retry budget is its survival path).  Every clean-
  /// teardown invariant in ok() must still hold.
  bool chaos = false;
};

struct SoakReport {
  bool completed = false;        ///< all roundtrips finished within bound
  std::uint64_t roundtrips = 0;
  std::uint64_t virtual_us = 0;  ///< virtual time when roundtrips finished
  double mean_roundtrip_us = 0;
  std::uint64_t integrity_failures = 0;
  std::uint64_t failed_calls = 0;     ///< RPC calls that gave up (chan)
  std::size_t pending_events = 0;     ///< leaked timers after teardown
  std::size_t live_connections = 0;   ///< TCP conns not CLOSED/TIME_WAIT
  std::size_t busy_channels = 0;      ///< RPC channels still awaiting reply
  std::size_t reassemblies_pending = 0;
  bool conserved = false;             ///< wire frame conservation held
  net::FaultCounters faults;
  std::uint64_t tcp_retransmits = 0;
  std::uint64_t tcp_bad_checksums = 0;
  std::uint64_t chan_retransmits = 0;
  std::uint64_t blast_nacks = 0;
  std::uint64_t blast_bad_frames = 0;  ///< validation + checksum rejects
  std::uint64_t fault_log_hash = 0;    ///< FNV-1a over the replay log
  // Chaos-phase outcome (all zero / 1 when spec.chaos is off).
  std::uint64_t reconnects = 0;        ///< TcpTest re-establishments
  std::uint64_t blackout_drops = 0;    ///< frames the dead link swallowed
  std::uint64_t frames_to_dead = 0;    ///< frames a crashed host discarded
  std::size_t purged_events = 0;       ///< timers killed by the crash
  std::uint32_t server_incarnation = 1;

  bool ok() const noexcept {
    return completed && integrity_failures == 0 && failed_calls == 0 &&
           pending_events == 0 && live_connections == 0 &&
           busy_channels == 0 && reassemblies_pending == 0 && conserved;
  }
  /// Deterministic one-line digest; byte-identical across replays of the
  /// same spec.
  std::string summary() const;
};

/// Run one soak: a pure function of the spec.
SoakReport run_soak(const SoakSpec& spec);

}  // namespace l96::harness
