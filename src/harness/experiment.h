// Experiment driver: runs a configured two-host world, captures one
// steady-state roundtrip's protocol processing per side, lowers it under
// the configuration's code image, and replays it through the machine model
// — producing every number Tables 2 and 4-9 report.
//
// Methodology (documented in EXPERIMENTS.md):
//  * Warm-up: enough roundtrips for TCP's congestion window to open fully,
//    so the captured roundtrip is the steady-state latency path.
//  * Capture: one receive-interrupt activation on each host = one
//    roundtrip's full protocol processing (input path, the upcall that
//    sends the next message, and the post-transmit work that overlaps the
//    frame's flight).  The transmit point splits critical-path work from
//    overlapped work.
//  * Cold replay (Table 6): the trace once through cold caches — the
//    paper's trace-driven cache simulation.
//  * Steady replay (Table 7): warm-up passes with untraced-code cache
//    scrubbing between activations, then one measured pass — the paper's
//    processing-time measurement on live hardware.
//  * End-to-end (Tables 4/5): two controller+wire traversals (the paper's
//    measured 105 us each) plus each side's critical-path processing time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "code/analysis.h"
#include "code/config.h"
#include "code/image.h"
#include "code/lower.h"
#include "net/world.h"
#include "sim/machine.h"

namespace l96::harness {

struct MachineParams {
  sim::MemorySystem::Config mem{};
  sim::Cpu::Config cpu{};
  /// Roundtrips run before capture so TCP's congestion window is fully open
  /// and the captured roundtrip is the steady-state latency path.  Sweeps
  /// may shrink this deliberately when the functional path stabilizes
  /// earlier (it is part of the trace-capture cache key).
  std::uint64_t warmup_roundtrips = 64;
  /// Steady-state replay: warm-up passes with primary-cache scrubbing in
  /// between (untraced interrupt/context-switch code evicting lines).
  std::uint32_t warmup_passes = 3;
  double scrub_fraction = 1.0;
  double scrub_fraction_d = 0.55;
  std::uint64_t scrub_seed = 0x9E3779B97F4A7C15ULL;

  static MachineParams defaults() { return MachineParams{}; }
};

/// Everything measured for one side (client or server) of one config.
struct SideMeasurement {
  std::string config_name;
  std::uint64_t instructions = 0;        ///< dynamic trace length
  std::uint64_t critical_instructions = 0;
  sim::RunResult cold;                   ///< Table 6 replay
  sim::RunResult steady;                 ///< Table 7 replay
  sim::RunResult critical;               ///< steady replay of critical prefix
  code::FootprintStats footprint;        ///< Table 9 inputs
  double tp_us = 0;                      ///< steady processing time
  double critical_us = 0;                ///< pre-transmit processing time
  std::uint64_t static_hot_words = 0;    ///< image hot-segment size
  std::uint64_t static_total_words = 0;
  /// Miss-attribution snapshots of the cold and steady full replays; null
  /// unless MeasureSpec::profile_misses was set.  shared_ptr keeps the
  /// struct cheap to copy (benches pass SideMeasurements around by value).
  std::shared_ptr<const sim::MissProfile> miss_cold;
  std::shared_ptr<const sim::MissProfile> miss_steady;
};

struct ConfigResult {
  SideMeasurement client;
  SideMeasurement server;
  double te_us = 0;       ///< end-to-end roundtrip (Table 4)
  double te_adjusted = 0; ///< minus controller overhead (Table 5)
};

/// One steady-state roundtrip captured per side of a running world.
struct CaptureResult {
  code::PathTrace client;
  code::PathTrace server;
  std::size_t client_split = 0;
  std::size_t server_split = 0;
};

/// Warm the world up (`warmup_roundtrips` ping-pongs), then capture one
/// receive-interrupt activation per side.  Throws std::runtime_error naming
/// the stack kind, both config names, and achieved-vs-requested roundtrip
/// counts when the world stalls.  The returned traces reference function
/// ids from the world's per-host registries, so the world must outlive any
/// lowering of them.
CaptureResult capture_traces(net::World& world,
                             std::uint64_t warmup_roundtrips);

/// Build the code image for `cfg` over `reg`, using `profile` as the layout
/// profile.  Pure function of its inputs.
code::CodeImage build_image(net::StackKind kind, const code::StackConfig& cfg,
                            const code::CodeRegistry& reg,
                            const code::PathTrace& profile,
                            const MachineParams& params);

/// Everything measure_side() needs for one side of one configuration,
/// bundled.  The former positional signatures grew to 7-8 parameters (and a
/// second entry point for off-profile replays); the struct form names every
/// field, defaults the profile to the replayed trace, and leaves room for
/// measurement options like profile_misses without another signature.
struct MeasureSpec {
  net::StackKind kind = net::StackKind::kTcpIp;
  code::StackConfig cfg;
  /// Registry the trace's function ids refer to (the owning World's).
  const code::CodeRegistry* registry = nullptr;
  /// The activation to lower and replay.
  const code::PathTrace* trace = nullptr;
  /// Layout profile the image is built from; nullptr means `trace` itself
  /// (the mainline case).  Point it at a different capture to replay an
  /// off-profile activation (e.g. an error path) under the mainline image.
  const code::PathTrace* profile = nullptr;
  /// Events of `trace` preceding the transmit point (critical path).
  std::size_t split = 0;
  /// Per-side scrub-seed offset (client 0 / server 1 by convention).
  std::uint64_t seed_offset = 0;
  MachineParams params = MachineParams::defaults();
  /// Attach a sim::MissProfiler to the cold and steady full replays and
  /// store snapshots in SideMeasurement::miss_cold / miss_steady.
  bool profile_misses = false;
};

/// Lower spec.trace under spec.cfg's image and replay it cold + steady: the
/// measurement kernel shared by Experiment, SweepRunner and the benches.
/// Pure function of the spec; reads the registry and traces only — safe to
/// call concurrently from multiple threads over the same registry/trace.
/// Throws std::invalid_argument when registry or trace is null.
SideMeasurement measure_side(const MeasureSpec& spec);

/// An activation *stream*: a sequence of path activations priced under one
/// continuously-evolving cache state (a back-to-back burst).  The single-
/// activation steady replay models "untraced code ran since the last
/// packet" (warm-up + scrub); a stream scrubs only before position 0, so
/// position 0 is the first-packet-in-burst cost (identical to the steady
/// replay) and later positions amortize the warm-up their predecessors
/// already paid.
struct StreamSpec {
  /// Image, registry, params, scrub seed and warm-up activation all come
  /// from `base`; base.trace is the default burst activation.
  MeasureSpec base;
  /// Number of back-to-back replays of base.trace (ignored when
  /// `activations` is non-empty).  Must be >= 1.
  std::size_t burst = 1;
  /// Explicit heterogeneous sequence (e.g. an error-path activation in the
  /// middle of a clean burst); every trace must reference base.registry.
  /// Empty means `burst` x base.trace.
  std::vector<const code::PathTrace*> activations;
};

/// Cost of one position of an activation stream.
struct StreamPosition {
  sim::RunResult steady;  ///< measured replay at this position
  double tp_us = 0;       ///< processing time at this position
};

struct StreamMeasurement {
  std::string config_name;
  std::vector<StreamPosition> positions;
  /// Whole-stream miss attribution (per-position rows + carryover hits);
  /// null unless base.profile_misses was set.
  std::shared_ptr<const sim::MissProfile> miss;

  double first_us() const { return positions.front().tp_us; }
  double steady_us() const { return positions.back().tp_us; }
};

/// Replay an activation stream and return per-position costs.  Position 0
/// is byte-identical to measure_side(spec.base)'s steady replay (tested).
/// Throws std::invalid_argument on a null registry/trace or an empty
/// stream.
StreamMeasurement measure_stream(const StreamSpec& spec);

/// Combine two side measurements into the end-to-end numbers (Tables 4/5):
/// te_us = controller + both sides' critical-path time, te_adjusted = the
/// two critical sums.  Te is the paper's zero-overhead-classifier roundtrip;
/// classification is priced only by the measured FlowCacheCosts model
/// (harness/classify.h).  The trailing parameters (client/server inlined,
/// params) no longer affect the result; they remain so the 6-argument call
/// in perfbench/main.cc keeps compiling.
ConfigResult combine_sides(SideMeasurement client, SideMeasurement server,
                           double controller_us, bool = false, bool = false,
                           const MachineParams& = MachineParams::defaults());

/// Measure both sides of one configuration and combine them: the one
/// side-pair measurement Experiment and SweepRunner share.
ConfigResult measure_config(const MeasureSpec& client,
                            const MeasureSpec& server, double controller_us);

/// `n` end-to-end samples (for the mean +/- stddev the paper reports):
/// sample k replays the client with scrub-seed offset 100+7k and the server
/// with 200+13k, never profiled, and is measure_config()'s te_us.
std::vector<double> sample_te(MeasureSpec client, MeasureSpec server,
                              double controller_us, std::uint64_t n);

class Experiment {
 public:
  Experiment(net::StackKind kind, code::StackConfig client_cfg,
             code::StackConfig server_cfg,
             MachineParams params = MachineParams::defaults());

  /// Run the world, capture, lower, replay; fills a ConfigResult.
  ConfigResult run();

  /// Warm up and capture both sides' traces without measuring anything
  /// (idempotent; run() and the accessors below trigger it implicitly).
  /// Exposed for callers that want the traces/specs but will run their own
  /// measure_side() variants (e.g. the fleet engine's slow-path pricing).
  void capture();

  /// Per-sample end-to-end latency with varied scrub seeds: sample_te()
  /// over this experiment's specs.
  std::vector<double> te_samples(std::uint64_t n_samples);

  /// Two controller+wire traversals of a minimum frame (Table 5's
  /// controller overhead).
  double controller_us() const;

  /// The captured client path trace (profile for layout, Table 3 analysis).
  const code::PathTrace& client_trace() const noexcept { return client_trace_; }
  const code::PathTrace& server_trace() const noexcept { return server_trace_; }
  std::size_t client_tx_split() const noexcept { return client_split_; }
  net::World& world() noexcept { return *world_; }

  /// Lower the client trace under this config's image (exposed for the
  /// footprint-map figure and ablation benches).
  sim::MachineTrace lower_client(const code::StackConfig& cfg_override) const;
  sim::MachineTrace lower_client() const { return lower_client(client_cfg_); }

  /// Lower only the first `count` events of the client trace (used to count
  /// instructions between protocol boundaries, Table 3).
  sim::MachineTrace lower_client_prefix(std::size_t count) const;

  /// Index of the first kCall event naming `fn_name` in the client trace,
  /// or npos.
  std::size_t find_client_call(std::string_view fn_name) const;

  /// MeasureSpec for this experiment's client/server side (capture() must
  /// have run; the spec borrows the world's registry and this object's
  /// trace).  Exposed so callers can tweak one field (seed, profiling)
  /// without re-deriving the rest.
  MeasureSpec client_spec() const;
  MeasureSpec server_spec() const;

 private:
  net::StackKind kind_;
  code::StackConfig client_cfg_;
  code::StackConfig server_cfg_;
  MachineParams params_;

  std::unique_ptr<net::World> world_;
  code::PathTrace client_trace_;
  code::PathTrace server_trace_;
  std::size_t client_split_ = 0;
  std::size_t server_split_ = 0;
  bool captured_ = false;
};

/// Convenience: run one configuration end to end.
ConfigResult run_config(net::StackKind kind, const code::StackConfig& ccfg,
                        const code::StackConfig& scfg,
                        MachineParams params = MachineParams::defaults());

/// The six paper configurations in Table 4's order.
std::vector<code::StackConfig> paper_configs();

}  // namespace l96::harness
