// The load-balancer tier: LbHost (a Maglev-steered DSR forwarder) and
// LbWorld (client fleet -> LB -> N backends on one virtual clock).
//
// Topology: the client host sits on its own wire with the LB at the far
// port; each backend sits on a private LB<->backend wire.  Every backend
// shares the VIP as its IP address (direct-server-return addressing) but
// has a distinct MAC, so the LB's per-packet work is: classify the
// inbound TCP/IP frame, pin the flow to a backend through the conn-track
// FlowCache (resolving new flows through the Maglev table), rewrite only
// the Ethernet destination MAC, and forward on that backend's wire — no
// IP/TCP checksum fixup.  Return traffic already carries the client's
// MAC and is cut through to the client wire unpriced (real DSR bypasses
// the LB entirely on the way back; the point-to-point wires here force
// the hop, so it is modeled as free switching fabric).
//
// The forwarding path is registered in the code model (stack_code.cc:
// lance_intr -> lb_classify -> lb_track -> lb_rewrite -> lb_forward ->
// lance_send) as a layout-transformable path, so measure_side prices it
// under STD/BAD/bipartite/inlined layouts exactly like the endpoint
// paths.  The Maglev hash+lookup functions run only on a conn-track miss
// or stale rebind and stay standalone.
//
// Robustness: seeded health probes with failure/recovery thresholds
// remove and restore backends from the Maglev pool; drain()/undrain()
// removes a backend administratively *without* invalidating its pinned
// flows (established connections ride out the removal), while a
// health-detected failure invalidates them (each pinned flow takes one
// stale slow-path rebind — the remap the harness prices).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "code/classifier.h"
#include "code/flow_cache.h"
#include "code/model.h"
#include "code/trace.h"
#include "net/host.h"
#include "net/maglev.h"
#include "net/wire.h"
#include "net/world.h"
#include "protocols/eth.h"
#include "protocols/lance.h"
#include "xkernel/event.h"
#include "xkernel/protocol.h"

namespace l96::net {

/// Seeded health-check configuration for the LB's backend probes.
struct LbHealthParams {
  std::uint64_t interval_us = 5'000;
  std::uint32_t fail_threshold = 3;     ///< consecutive failures -> down
  std::uint32_t recover_threshold = 2;  ///< consecutive successes -> up
  std::uint64_t seed = 1;               ///< per-backend probe phase jitter
};

/// Why the Maglev pool was rebuilt.
enum class LbRebuildCause : std::uint8_t {
  kHealthDown,
  kHealthUp,
  kDrain,
  kUndrain,
};
const char* to_string(LbRebuildCause c);

/// One pool-change record (the failover harness prices these).
struct LbRebuild {
  std::uint64_t at_us = 0;
  LbRebuildCause cause = LbRebuildCause::kHealthDown;
  std::uint16_t backend = 0;
  std::size_t remapped = 0;     ///< Maglev entries that changed owner
  std::size_t invalidated = 0;  ///< conn-track entries forced stale
  std::size_t pool_size = 0;    ///< alive backends after the rebuild
};

/// One LB<->backend leg as the LbHost sees it.
struct LbBackendLink {
  Wire* wire = nullptr;
  int tx_port = 0;  ///< the LB's port on that wire
  proto::MacAddr mac{};
};

struct LbOptions {
  code::FlowCacheScheme track_scheme = code::FlowCacheScheme::kLru;
  std::size_t track_capacity = 1024;
  code::FlowCacheCosts track_costs{};
  std::size_t maglev_table_size = MaglevTable::kDefaultTableSize;
  std::uint64_t salt = 0;
  LbHealthParams health{};
};

class LbHost {
 public:
  LbHost(std::string name, const code::StackConfig& cfg,
         xk::EventManager& events, std::uint32_t event_owner,
         Wire& client_wire, int client_tx_port,
         std::vector<LbBackendLink> backends, LbOptions opts = {});
  ~LbHost();

  LbHost(const LbHost&) = delete;
  LbHost& operator=(const LbHost&) = delete;

  /// Frame delivery from the client wire (the receive interrupt on the
  /// client-facing NIC): classify, pin, rewrite, forward.
  void deliver_from_client(std::span<const std::uint8_t> frame);
  /// Frame delivery from backend `i`'s wire: cut-through to the client.
  void deliver_from_backend(std::size_t i,
                            std::span<const std::uint8_t> frame);

  // --- pool management ------------------------------------------------------
  /// Administrative removal: new flows steer away, pinned flows ride out
  /// (no conn-track invalidation).  No-op when already drained.
  void drain(std::size_t backend);
  void undrain(std::size_t backend);
  bool drained(std::size_t backend) const;
  /// Health state as of the last probe evaluation.
  bool healthy(std::size_t backend) const;
  /// Alive = healthy and not drained (the Maglev pool membership).
  std::size_t pool_size() const { return maglev_.pool_size(); }

  /// The probe predicate: "does backend i answer right now?".  The world
  /// wires this to link-up + not-crashed; tests may substitute.
  using ProbeFn = std::function<bool(std::size_t)>;
  void set_health_probe(ProbeFn fn) { probe_fn_ = std::move(fn); }
  /// Start the recurring per-backend probes (deterministically phased by
  /// the health seed).
  void start_health_checks();

  // --- capture / observation ------------------------------------------------
  /// Record the next client->backend forwarding activation into `sink`
  /// (same contract as Host::arm_capture).
  void arm_capture(code::PathTrace* sink);
  std::size_t tx_split() const noexcept { return tx_split_; }
  bool capture_complete() const noexcept { return capture_done_; }

  /// Per-forward observer: lookup result, whether the activation took the
  /// standalone slow path, and the chosen backend (-1 = dropped).
  using ForwardHook =
      std::function<void(const code::FlowLookupResult&, bool slow_path,
                         int backend)>;
  void set_forward_hook(ForwardHook h) { forward_hook_ = std::move(h); }

  // --- components / counters ------------------------------------------------
  const std::string& name() const noexcept { return name_; }
  const code::StackConfig& config() const noexcept { return cfg_; }
  code::CodeRegistry& registry() noexcept { return registry_; }
  code::Recorder& recorder() noexcept { return recorder_; }
  MaglevTable& maglev() noexcept { return maglev_; }
  code::FlowCache& conn_track() noexcept { return track_; }
  const code::FlowCache& conn_track() const noexcept { return track_; }
  const std::vector<LbRebuild>& rebuilds() const noexcept {
    return rebuilds_;
  }
  xk::EventPort& event_port() noexcept { return port_; }
  std::size_t backend_count() const noexcept { return backends_.size(); }

  std::uint64_t forwards() const noexcept { return forwards_; }
  std::uint64_t slow_forwards() const noexcept { return slow_forwards_; }
  std::uint64_t returns_forwarded() const noexcept {
    return returns_forwarded_;
  }
  std::uint64_t drops_bad_frame() const noexcept { return drops_bad_frame_; }
  std::uint64_t drops_no_backend() const noexcept {
    return drops_no_backend_;
  }
  /// Forwards that hit a dark LB->backend leg (the wire's blackout
  /// accounting swallowed the frame).
  std::uint64_t dark_forwards() const noexcept { return dark_forwards_; }
  std::uint64_t health_probes() const noexcept { return health_probes_; }

 private:
  struct Backend {
    Wire* wire = nullptr;
    int tx_port = 0;
    proto::MacAddr mac{};
    std::unique_ptr<proto::Lance> lance;  ///< traced tx NIC for this leg
    bool healthy = true;
    bool drained = false;
    std::uint32_t fail_streak = 0;
    std::uint32_t ok_streak = 0;
  };

  /// The client-facing NIC's upper protocol: receives the Lance upcall
  /// and runs the forwarding path.
  class Upper;

  void forward(xk::Message& m);
  void probe(std::size_t i);
  void rebuild_pool(LbRebuildCause cause, std::uint16_t backend,
                    bool invalidate);
  std::vector<bool> alive_mask() const;

  std::string name_;
  code::StackConfig cfg_;

  xk::SimAlloc arena_;
  code::Recorder recorder_;
  code::CodeRegistry registry_;
  xk::EventPort port_;
  std::unique_ptr<xk::ProtoCtx> ctx_;

  Wire& client_wire_;
  int client_tx_port_;
  std::unique_ptr<Upper> upper_;
  std::unique_ptr<proto::Lance> client_lance_;
  std::vector<Backend> backends_;

  code::PacketClassifier classifier_;
  code::FlowCache track_;
  MaglevTable maglev_;
  LbHealthParams health_;
  ProbeFn probe_fn_;
  std::vector<LbRebuild> rebuilds_;

  code::FnId fn_classify_;
  code::FnId fn_hash_;
  code::FnId fn_maglev_;
  code::FnId fn_track_;
  code::FnId fn_rewrite_;
  code::FnId fn_forward_;

  // Per-delivery state handed from deliver_from_client() to forward()
  // (single-threaded event loop: exactly one frame in flight).
  code::FlowLookupResult pending_lr_;
  bool pending_slow_ = false;
  bool pending_empty_pool_ = false;
  bool pending_bad_frame_ = false;

  code::PathTrace* capture_sink_ = nullptr;
  std::size_t tx_split_ = 0;
  bool capture_done_ = false;
  ForwardHook forward_hook_;

  std::uint64_t forwards_ = 0;
  std::uint64_t slow_forwards_ = 0;
  std::uint64_t returns_forwarded_ = 0;
  std::uint64_t drops_bad_frame_ = 0;
  std::uint64_t drops_no_backend_ = 0;
  std::uint64_t dark_forwards_ = 0;
  std::uint64_t health_probes_ = 0;
};

/// Construction-time tuning for an LbWorld.
struct LbWorldOptions {
  std::size_t backends = 4;
  WireParams wire{};
  std::size_t tcp_conn_buckets = 64;
  LbOptions lb{};
};

/// Client fleet -> LB -> N backends on one shared virtual clock.
///
/// Failure-domain owners on the shared EventManager: 0 infrastructure,
/// 1 client, 2 the LB, 3+i backend i — so crashing backend i purges
/// exactly its own timers.
class LbWorld {
 public:
  static constexpr std::uint16_t kTcpServerPort = World::kTcpServerPort;
  static constexpr std::uint32_t kClientOwner = 1;
  static constexpr std::uint32_t kLbOwner = 2;
  static constexpr std::uint32_t kFirstBackendOwner = 3;

  LbWorld(const code::StackConfig& client_cfg, const code::StackConfig& lb_cfg,
          const code::StackConfig& backend_cfg, LbWorldOptions options = {});

  /// Serve on every backend, start the client's ping-pong against the
  /// VIP, and begin the LB's health probes.
  void start(std::uint64_t target_roundtrips);

  bool run_until(xk::PredicateRef pred, std::uint64_t max_us) {
    return events_.run_until(pred, max_us);
  }
  bool run_until_roundtrips(std::uint64_t n, std::uint64_t max_us = 0);
  std::uint64_t client_roundtrips() const;

  Host& client() noexcept { return *client_; }
  LbHost& lb() noexcept { return *lb_; }
  Host& backend(std::size_t i) noexcept { return *backends_[i]; }
  std::size_t backend_count() const noexcept { return backends_.size(); }
  Wire& client_wire() noexcept { return client_wire_; }
  Wire& backend_wire(std::size_t i) noexcept { return *backend_wires_[i]; }
  xk::EventManager& events() noexcept { return events_; }

  std::uint32_t vip() const noexcept;
  const HostAddress& client_address() const;

 private:
  xk::EventManager events_;
  Wire client_wire_;
  std::vector<std::unique_ptr<Wire>> backend_wires_;
  std::unique_ptr<Host> client_;
  std::vector<std::unique_ptr<Host>> backends_;
  std::unique_ptr<LbHost> lb_;
};

}  // namespace l96::net
