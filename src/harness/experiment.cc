#include "harness/experiment.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "protocols/stack_code.h"
#include "xkernel/simalloc.h"

namespace l96::harness {

namespace {

std::string capture_context(net::World& world) {
  return std::string(world.kind() == net::StackKind::kTcpIp ? "TCP/IP"
                                                            : "RPC") +
         ", client=" + world.client().config().name +
         ", server=" + world.server().config().name;
}

[[noreturn]] void capture_fail(net::World& world, const char* what,
                               std::uint64_t requested) {
  throw std::runtime_error(
      std::string("capture failed (") + capture_context(world) + "): " + what +
      " — reached " + std::to_string(world.client_roundtrips()) + " of " +
      std::to_string(requested) + " requested roundtrips");
}

/// The first `count` events of `t` (the pre-transmit critical path, or a
/// Table 3 protocol-boundary prefix).
code::PathTrace prefix_of(const code::PathTrace& t, std::size_t count) {
  code::PathTrace p;
  p.events.assign(t.events.begin(),
                  t.events.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(count, t.events.size())));
  return p;
}

/// Miss-attribution profiler over `image`, or null when not requested.
std::unique_ptr<sim::MissProfiler> make_profiler(const MeasureSpec& spec,
                                                 const code::CodeImage& image) {
  if (!spec.profile_misses) return nullptr;
  return std::make_unique<sim::MissProfiler>(code::build_owner_map(
      *spec.registry, image, code::LowerParams{},
      {{"data:arena", xk::SimAlloc::kArenaBase,
        xk::SimAlloc::kArenaBase + 0x100'0000}}));
}

/// Steady-state replay options (Table 7): warm-up passes with scrubbing
/// between activations, seeded per side.
sim::Machine::Options steady_options(const MeasureSpec& spec) {
  sim::Machine::Options opts;
  opts.cold_start = true;
  opts.warmup_passes = spec.params.warmup_passes;
  opts.scrub_fraction = spec.params.scrub_fraction;
  opts.scrub_fraction_d = spec.params.scrub_fraction_d;
  opts.scrub_seed = spec.params.scrub_seed + spec.seed_offset;
  return opts;
}

}  // namespace

CaptureResult capture_traces(net::World& world,
                             std::uint64_t warmup_roundtrips) {
  CaptureResult r;
  const std::uint64_t warm = warmup_roundtrips;
  if (!world.run_until_roundtrips(warm)) {
    capture_fail(world, "world did not reach warm-up roundtrips", warm);
  }
  world.client().arm_capture(&r.client);
  if (!world.run_until_roundtrips(warm + 1)) {
    capture_fail(world, "client capture roundtrip did not complete", warm + 1);
  }
  r.client_split = world.client().tx_split();

  world.server().arm_capture(&r.server);
  if (!world.run_until_roundtrips(warm + 2)) {
    capture_fail(world, "server capture roundtrip did not complete", warm + 2);
  }
  r.server_split = world.server().tx_split();
  return r;
}

Experiment::Experiment(net::StackKind kind, code::StackConfig client_cfg,
                       code::StackConfig server_cfg, MachineParams params)
    : kind_(kind),
      client_cfg_(std::move(client_cfg)),
      server_cfg_(std::move(server_cfg)),
      params_(params) {
  world_ = std::make_unique<net::World>(kind_, client_cfg_, server_cfg_);
}

void Experiment::capture() {
  if (captured_) return;
  world_->start(~std::uint64_t{0});
  CaptureResult r = capture_traces(*world_, params_.warmup_roundtrips);
  client_trace_ = std::move(r.client);
  server_trace_ = std::move(r.server);
  client_split_ = r.client_split;
  server_split_ = r.server_split;
  captured_ = true;
}

code::CodeImage build_image(net::StackKind kind, const code::StackConfig& cfg,
                            const code::CodeRegistry& reg,
                            const code::PathTrace& profile,
                            const MachineParams& params) {
  code::ImageBuilder b(reg, cfg);
  b.set_profile(profile);
  b.set_conflict_data_base(xk::SimAlloc::kArenaBase);
  b.set_cache_geometry(params.mem.icache_bytes, params.mem.block_bytes,
                       params.mem.bcache_bytes);
  if (cfg.path_inlining) {
    if (kind == net::StackKind::kTcpIp) {
      b.declare_path(proto::tcpip_output_path(reg));
      b.declare_path(proto::tcpip_input_path(reg));
    } else if (kind == net::StackKind::kRpc) {
      b.declare_path(proto::rpc_output_path(reg));
      b.declare_path(proto::rpc_input_path(reg));
    } else {
      b.declare_path(proto::lb_forward_path(reg));
    }
  }
  return b.build();
}

SideMeasurement measure_side(const MeasureSpec& spec) {
  if (spec.registry == nullptr || spec.trace == nullptr) {
    throw std::invalid_argument(
        "MeasureSpec requires a registry and a trace");
  }
  const code::CodeRegistry& reg = *spec.registry;
  const code::PathTrace& trace = *spec.trace;
  const code::PathTrace& profile =
      spec.profile != nullptr ? *spec.profile : trace;
  const MachineParams& params = spec.params;

  SideMeasurement m;
  m.config_name = spec.cfg.name;

  const code::CodeImage image =
      build_image(spec.kind, spec.cfg, reg, profile, params);
  m.static_hot_words = image.hot_words();
  m.static_total_words = image.total_words();

  code::Lowering lower(reg, image, spec.cfg);
  const sim::MachineTrace full = lower.lower(trace);
  m.instructions = full.size();

  const sim::MachineTrace critical =
      lower.lower(prefix_of(trace, spec.split));
  m.critical_instructions = critical.size();

  // Miss attribution: one profiler (owner map shared) drives both full
  // replays; Machine::run resets it at measurement start, so each snapshot
  // covers exactly one replay and conserves to that replay's CacheStats.
  const std::unique_ptr<sim::MissProfiler> prof = make_profiler(spec, image);

  // One machine serves all three replays.  Each starts with reset_cold(),
  // so the results equal those of three fresh machines (tested).
  sim::Machine machine(params.mem, params.cpu);

  // Cold replay: the paper's trace-driven cache simulation (Table 6).
  {
    sim::Machine::Options opts;
    opts.cold_start = true;
    opts.warmup_passes = 0;
    opts.miss_profiler = prof.get();
    m.cold = machine.run(full, opts);
    if (prof) {
      m.miss_cold =
          std::make_shared<const sim::MissProfile>(prof->snapshot());
    }
  }
  // Steady replay: processing time and CPI (Table 7).
  const sim::Machine::Options steady = steady_options(spec);
  {
    sim::Machine::Options opts = steady;
    opts.miss_profiler = prof.get();
    m.steady = machine.run(full, opts);
    m.tp_us = m.steady.processing_us(params.cpu.frequency_hz);
    if (prof) {
      m.miss_steady =
          std::make_shared<const sim::MissProfile>(prof->snapshot());
    }
  }
  m.critical = machine.run(critical, steady);
  m.critical_us = m.critical.processing_us(params.cpu.frequency_hz);

  m.footprint = code::footprint_stats(full, image, params.mem.block_bytes);
  return m;
}

StreamMeasurement measure_stream(const StreamSpec& spec) {
  const MeasureSpec& base = spec.base;
  if (base.registry == nullptr || base.trace == nullptr) {
    throw std::invalid_argument(
        "StreamSpec.base requires a registry and a trace");
  }
  if (spec.activations.empty() && spec.burst == 0) {
    throw std::invalid_argument("StreamSpec: burst must be >= 1");
  }
  for (const code::PathTrace* t : spec.activations) {
    if (t == nullptr) {
      throw std::invalid_argument("StreamSpec: null activation in sequence");
    }
  }
  const code::CodeRegistry& reg = *base.registry;
  const code::PathTrace& profile =
      base.profile != nullptr ? *base.profile : *base.trace;
  const MachineParams& params = base.params;

  StreamMeasurement m;
  m.config_name = base.cfg.name;

  // One image for the whole stream: every activation (clean or error path)
  // executes under the same layout, exactly as a burst would on hardware.
  const code::CodeImage image =
      build_image(base.kind, base.cfg, reg, profile, params);
  code::Lowering lower(reg, image, base.cfg);

  // Lower the warm-up/default activation once; heterogeneous sequence
  // entries pointing at the same trace share the lowering.
  const sim::MachineTrace warm = lower.lower(*base.trace);
  std::vector<sim::MachineTrace> lowered;
  std::vector<const sim::MachineTrace*> seq;
  if (spec.activations.empty()) {
    seq.assign(spec.burst, &warm);
  } else {
    lowered.reserve(spec.activations.size());
    for (const code::PathTrace* t : spec.activations) {
      if (t == base.trace) {
        seq.push_back(&warm);
      } else {
        lowered.push_back(lower.lower(*t));
        seq.push_back(&lowered.back());
      }
    }
  }

  const std::unique_ptr<sim::MissProfiler> prof = make_profiler(base, image);

  // Same steady-state options as measure_side: position 0 starts from the
  // post-warm-up, post-scrub state and is byte-identical to the steady
  // replay; later positions run back to back with no scrub in between.
  sim::Machine machine(params.mem, params.cpu);
  sim::Machine::Options opts = steady_options(base);
  opts.miss_profiler = prof.get();
  const std::vector<sim::RunResult> runs =
      machine.run_stream(seq, opts, &warm);

  m.positions.reserve(runs.size());
  for (const sim::RunResult& r : runs) {
    StreamPosition p;
    p.steady = r;
    p.tp_us = r.processing_us(params.cpu.frequency_hz);
    m.positions.push_back(p);
  }
  if (prof) {
    m.miss = std::make_shared<const sim::MissProfile>(prof->snapshot());
  }
  return m;
}

ConfigResult combine_sides(SideMeasurement client, SideMeasurement server,
                           double controller_us, bool, bool,
                           const MachineParams&) {
  ConfigResult r;
  r.client = std::move(client);
  r.server = std::move(server);
  r.te_us = controller_us + r.client.critical_us + r.server.critical_us;
  r.te_adjusted = r.client.critical_us + r.server.critical_us;
  return r;
}

ConfigResult measure_config(const MeasureSpec& client,
                            const MeasureSpec& server, double controller_us) {
  return combine_sides(measure_side(client), measure_side(server),
                       controller_us);
}

std::vector<double> sample_te(MeasureSpec client, MeasureSpec server,
                              double controller_us, std::uint64_t n) {
  client.profile_misses = server.profile_misses = false;
  std::vector<double> out;
  out.reserve(n);
  for (std::uint64_t k = 0; k < n; ++k) {
    client.seed_offset = 100 + k * 7;
    server.seed_offset = 200 + k * 13;
    out.push_back(measure_config(client, server, controller_us).te_us);
  }
  return out;
}

ConfigResult Experiment::run() {
  capture();
  return measure_config(client_spec(), server_spec(), controller_us());
}

std::vector<double> Experiment::te_samples(std::uint64_t n_samples) {
  capture();
  return sample_te(client_spec(), server_spec(), controller_us(), n_samples);
}

double Experiment::controller_us() const {
  return 2.0 * world_->wire().params().one_way_us(proto::Lance::kMinFrame);
}

MeasureSpec Experiment::client_spec() const {
  MeasureSpec spec;
  spec.kind = kind_;
  spec.cfg = client_cfg_;
  spec.registry = &world_->client().registry();
  spec.trace = &client_trace_;
  spec.split = client_split_;
  spec.seed_offset = 0;
  spec.params = params_;
  return spec;
}

MeasureSpec Experiment::server_spec() const {
  MeasureSpec spec;
  spec.kind = kind_;
  spec.cfg = server_cfg_;
  spec.registry = &world_->server().registry();
  spec.trace = &server_trace_;
  spec.split = server_split_;
  spec.seed_offset = 1;
  spec.params = params_;
  return spec;
}

sim::MachineTrace Experiment::lower_client(
    const code::StackConfig& cfg_override) const {
  auto& self = const_cast<Experiment&>(*this);
  self.capture();
  const auto& reg = self.world_->client().registry();
  const code::CodeImage image =
      build_image(kind_, cfg_override, reg, client_trace_, params_);
  code::Lowering lower(reg, image, cfg_override);
  return lower.lower(client_trace_);
}

sim::MachineTrace Experiment::lower_client_prefix(std::size_t count) const {
  auto& self = const_cast<Experiment&>(*this);
  self.capture();
  const auto& reg = self.world_->client().registry();
  const code::CodeImage image =
      build_image(kind_, client_cfg_, reg, client_trace_, params_);
  return code::Lowering(reg, image, client_cfg_)
      .lower(prefix_of(client_trace_, count));
}

std::size_t Experiment::find_client_call(std::string_view fn_name) const {
  auto& self = const_cast<Experiment&>(*this);
  self.capture();
  const code::FnId id = self.world_->client().registry().require(fn_name);
  for (std::size_t i = 0; i < client_trace_.events.size(); ++i) {
    const auto& ev = client_trace_.events[i];
    if (ev.kind == code::EventKind::kCall && ev.fn == id) return i;
  }
  return static_cast<std::size_t>(-1);
}

ConfigResult run_config(net::StackKind kind, const code::StackConfig& ccfg,
                        const code::StackConfig& scfg, MachineParams params) {
  Experiment e(kind, ccfg, scfg, params);
  return e.run();
}

std::vector<code::StackConfig> paper_configs() {
  return {code::StackConfig::Bad(), code::StackConfig::Std(),
          code::StackConfig::Out(), code::StackConfig::Clo(),
          code::StackConfig::Pin(), code::StackConfig::All()};
}

}  // namespace l96::harness
