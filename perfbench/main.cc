// perfbench: one run of one benchmark workload (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Prints one JSON report on the last line of stdout.  `metrics` holds the
// end-to-end metrics with --trace 0 and the per-layer metrics with
// --trace 1; `modeled` holds every deterministic output (modeled values and
// sample digests, exact to the bit) so two runs can be compared; `checks`
// lists the correctness checks that failed, each naming the workload.  The
// process exits 1 when any check failed.
//
// With --trace 1 every call this file makes into the library is recorded
// as a span (layer, name, start, end, parent) and written to --spans at the
// end; layer self time is derived from the spans, and per-layer probes run
// after the timed phase on inputs sized from the workload.
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "code/classifier.h"
#include "code/flow_cache.h"
#include "harness/classify.h"
#include "harness/experiment.h"
#include "harness/fleet.h"
#include "harness/runner.h"
#include "harness/shard.h"
#include "net/world.h"
#include "protocols/lance.h"
#include "protocols/rulegen.h"
#include "protocols/stack_code.h"
#include "sim/machine.h"
#include "xkernel/event.h"
#include "xkernel/map.h"
#include "xkernel/simalloc.h"

namespace {

namespace code = l96::code;
namespace h = l96::harness;
namespace net = l96::net;
namespace proto = l96::proto;
namespace sim = l96::sim;
namespace xk = l96::xk;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile of a non-empty sample, the fleet engine's rule:
/// s[floor(q * n)].
double percentile(std::vector<double> s, double q) {
  std::sort(s.begin(), s.end());
  const auto i = static_cast<std::size_t>(q * static_cast<double>(s.size()));
  return s[std::min(i, s.size() - 1)];
}

/// Host times are summarized by the fastest repetition of each unit of work,
/// summed over the units.  The host is shared, and a core runs at one of two
/// speeds, about 1.5x apart, in spells of seconds; contention only ever
/// slows a repetition, so the fastest of a short unit's repetitions across
/// the run tracks the program's own cost, where a median or a quartile
/// tracks the neighbours.
class Fastest {
 public:
  /// Record one repetition of unit `i` that took `seconds`.
  void add(std::size_t i, double seconds) {
    if (best_.size() <= i) best_.resize(i + 1, INFINITY);
    best_[i] = std::min(best_[i], seconds);
  }
  double of(std::size_t i) const { return i < best_.size() ? best_[i] : 0.0; }
  /// Sum over units of their fastest repetition.
  double total() const {
    double s = 0;
    for (double b : best_) s += b;
    return s;
  }

 private:
  std::vector<double> best_;
};

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// FNV-1a over the bit patterns of a sample stream.
class Digest {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h_ ^= (bits >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

// ---------------------------------------------------------------------------
// Spans

/// In-memory span recorder.  Disabled, a Scope costs one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer& t, const char* layer, const char* name) : t_(t) {
      if (!t_.enabled_) return;
      idx_ = static_cast<int>(t_.spans_.size());
      const int parent = t_.open_.empty() ? -1 : t_.open_.back();
      t_.spans_.push_back({layer, name, Clock::now(), {}, parent});
      t_.open_.push_back(idx_);
    }
    ~Scope() {
      if (idx_ < 0) return;
      t_.spans_[static_cast<std::size_t>(idx_)].end = Clock::now();
      t_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int idx_ = -1;
  };

  /// Self time per layer: each span's duration minus its children's.
  std::map<std::string, double> self_ms() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = duration_ms(i);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -=
            duration_ms(static_cast<std::size_t>(&s - spans_.data()));
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].layer] += self[i];
    }
    return out;
  }

  void write(const std::string& path, const std::string& run_id) const {
    const std::filesystem::path p(path);
    if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
    std::ofstream os(p);
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof line,
                    "{\"run\":\"%s\",\"id\":%zu,\"parent\":%d,\"layer\":\"%s\","
                    "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                    run_id.c_str(), i, s.parent, s.layer, s.name,
                    us_since_origin(s.start), us_since_origin(s.end),
                    i + 1 < spans_.size() ? "," : "");
      os << line;
    }
    os << "]\n";
    if (!os) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  struct Span {
    const char* layer;
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
  };
  double duration_ms(std::size_t i) const {
    return std::chrono::duration<double, std::milli>(spans_[i].end -
                                                     spans_[i].start)
        .count();
  }
  double us_since_origin(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Run `f` inside a span of `layer`.
template <typename F>
auto traced(Tracer& t, const char* layer, const char* name, F&& f) {
  Tracer::Scope s(t, layer, name);
  return f();
}

// ---------------------------------------------------------------------------
// Report

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void e2e(const std::string& name, double v, const char* unit) {
    e2e_.push_back({name, v, unit});
  }
  void layer(const std::string& name, double v, const char* unit) {
    layer_.push_back({name, v, unit});
  }
  /// A deterministic output: reported as a metric and compared bit for bit.
  void modeled_e2e(const std::string& name, double v, const char* unit) {
    e2e(name, v, unit);
    modeled(name, v);
  }
  void modeled_layer(const std::string& name, double v, const char* unit) {
    layer(name, v, unit);
    modeled(name, v);
  }
  void modeled(const std::string& name, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    modeled_.emplace_back(name, std::string(buf));
  }
  void digest(const std::string& name, std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "\"%016llx\"",
                  static_cast<unsigned long long>(v));
    modeled_.emplace_back(name, std::string(buf));
  }

  /// Record a correctness check; a failure is printed at once, naming the
  /// workload and the check.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    failed_checks_.push_back(workload_ + ": " + what);
    std::fprintf(stderr, "perfbench: %s: check failed: %s\n",
                 workload_.c_str(), what.c_str());
  }
  bool correct() const { return failed_checks_.empty(); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t timed_ops = 0;
  double timed_s = 0;

  void print(bool trace, std::uint64_t seed) {
    for (const Metric& m : e2e_) check(std::isfinite(m.value), m.name + " is finite");
    for (const Metric& m : layer_) check(std::isfinite(m.value), m.name + " is finite");
    std::string out = "{\"workload\":\"" + workload_ + "\",\"seed\":" +
                      std::to_string(seed) + ",\"trace\":" +
                      (trace ? "1" : "0") + ",\"correct\":" +
                      (correct() ? "true" : "false") + ",\"checks\":[";
    for (std::size_t i = 0; i < failed_checks_.size(); ++i) {
      out += (i ? "," : "") + quote(failed_checks_[i]);
    }
    out += "],\"attempted\":" + std::to_string(attempted) +
           ",\"failed\":" + std::to_string(failed) +
           ",\"timed_ops\":" + std::to_string(timed_ops) +
           ",\"timed_s\":" + num(timed_s) + ",\"metrics\":{";
    const std::vector<Metric>& ms = trace ? layer_ : e2e_;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      out += (i ? "," : "") + quote(ms[i].name) + ":{\"value\":" +
             (std::isfinite(ms[i].value) ? num(ms[i].value) : "null") +
             ",\"unit\":" + quote(ms[i].unit) + "}";
    }
    out += "},\"modeled\":{";
    for (std::size_t i = 0; i < modeled_.size(); ++i) {
      out += (i ? "," : "") + quote(modeled_[i].first) + ":" +
             modeled_[i].second;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  static std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }
  static std::string quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return q + "\"";
  }

  std::string workload_;
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<std::pair<std::string, std::string>> modeled_;
  std::vector<std::string> failed_checks_;
};

// ---------------------------------------------------------------------------
// Workload shapes

struct Shape {
  const char* name;
  /// Te samples per stack x layout: the timed operation of paper_layouts,
  /// and a post-run pass on the fleets (every workload reports Te).
  std::size_t te_samples = 4;
  bool te_timed = false;
  // Fleet row (connections == 0: no fleet).
  std::size_t connections = 0;
  std::size_t cores = 1;
  std::size_t batch = 1;
  std::size_t capacity = 8;
  std::size_t rules = 0;
  std::uint64_t packets = 0;
  std::uint64_t churn_every = 0;
  double zipf_s = 1.1;
};

const Shape kShapes[] = {
    {.name = "paper_layouts", .te_samples = 16, .te_timed = true},
    {.name = "fleet_zipf",
     .connections = 4096,
     .capacity = 8,
     .packets = 50000},
    {.name = "fleet_churn_100k",
     .connections = 100000,
     .cores = 4,
     .batch = 16,
     .capacity = 64,
     .rules = 2048,
     .packets = 100000,
     .churn_every = 64},
};

/// Set-up repetitions before the timed phase.  One set-up takes
/// milliseconds; set-up time takes each of its units' fastest repetition
/// among these and one more repetition after each timed repetition, so the
/// repetitions span the run.
constexpr int kSetupReps = 7;

// ---------------------------------------------------------------------------
// Te sampling over the paper's stack x layout grid (Table 4)

struct Layout {
  net::StackKind kind;
  code::StackConfig client;
  code::StackConfig server;
  std::string key;  ///< "tcpip.STD"
};

std::vector<Layout> paper_layouts() {
  std::vector<Layout> out;
  for (net::StackKind kind : {net::StackKind::kTcpIp, net::StackKind::kRpc}) {
    const bool rpc = kind == net::StackKind::kRpc;
    for (const code::StackConfig& cfg : h::paper_configs()) {
      // RPC pins the server at ALL, as in Table 4.
      out.push_back({kind, cfg, rpc ? code::StackConfig::All() : cfg,
                     std::string(rpc ? "rpc." : "tcpip.") + cfg.name});
    }
  }
  return out;
}

using Experiments = std::vector<std::unique_ptr<h::Experiment>>;

/// Construct and capture one Experiment per layout; the host time of
/// layout li's set-up goes to `times` as unit li, when given.
Experiments capture_layouts(const std::vector<Layout>& layouts,
                            const h::MachineParams& params, Tracer& tr,
                            Fastest* times = nullptr) {
  Experiments exps;
  for (std::size_t li = 0; li < layouts.size(); ++li) {
    const Layout& l = layouts[li];
    const auto t0 = Clock::now();
    exps.push_back(
        std::make_unique<h::Experiment>(l.kind, l.client, l.server, params));
    traced(tr, "net", "harness::Experiment::capture",
           [&] { exps.back()->capture(); });
    if (times != nullptr) times->add(li, seconds_since(t0));
  }
  return exps;
}

struct TeRound {
  std::vector<std::vector<double>> te;  ///< per layout, per sample
  std::vector<double> pkt;              ///< server per-packet latency, pooled
  std::vector<sim::RunResult> client0;  ///< sample 0's client steady replay
  std::uint64_t samples = 0;
  std::uint64_t failed = 0;
  double virtual_us = 0;
  double host_s = 0;  ///< host time of the samples
  std::uint64_t digest = 0;
};

/// `n` Te samples per layout; sample i scrubs with seed offsets 2i / 2i+1.
/// The host time of sample i of layout li goes to `times` as unit li*n+i,
/// when given.
TeRound te_round(const std::vector<Layout>& layouts, const Experiments& exps,
                 std::size_t n, const h::MachineParams& params, Tracer& tr,
                 Report& rep, Fastest* times = nullptr) {
  TeRound r;
  Digest d;
  r.te.resize(layouts.size());
  r.client0.resize(layouts.size());
  for (std::size_t li = 0; li < layouts.size(); ++li) {
    h::Experiment& e = *exps[li];
    const double controller =
        2.0 * e.world().wire().params().one_way_us(proto::Lance::kMinFrame);
    h::MeasureSpec cspec = e.client_spec();
    h::MeasureSpec sspec = e.server_spec();
    for (std::size_t i = 0; i < n; ++i) {
      ++r.samples;
      cspec.seed_offset = 2 * i;
      sspec.seed_offset = 2 * i + 1;
      const auto t0 = Clock::now();
      try {
        h::SideMeasurement c = traced(tr, "harness", "harness::measure_side",
                                      [&] { return h::measure_side(cspec); });
        h::SideMeasurement s = traced(tr, "harness", "harness::measure_side",
                                      [&] { return h::measure_side(sspec); });
        if (i == 0) r.client0[li] = c.steady;
        const double pkt = 0.5 * controller + s.tp_us;
        const double te =
            h::combine_sides(std::move(c), std::move(s), controller,
                             layouts[li].client.path_inlining,
                             layouts[li].server.path_inlining, params)
                .te_us;
        if (!(std::isfinite(te) && te > 0)) {
          rep.check(false, layouts[li].key + " Te sample " +
                               std::to_string(i) + " is finite and positive");
        }
        r.te[li].push_back(te);
        r.pkt.push_back(pkt);
        r.virtual_us += te;
        d.add(te);
        d.add(pkt);
      } catch (const std::exception& ex) {
        ++r.failed;
        std::fprintf(stderr, "perfbench: %s Te sample %zu threw: %s\n",
                     layouts[li].key.c_str(), i, ex.what());
      }
      const double el = seconds_since(t0);
      r.host_s += el;
      if (times != nullptr) times->add(li * n + i, el);
    }
  }
  r.digest = d.value();
  return r;
}

/// The highest of p99.9 / p99 / p90 that leaves >= 10 samples beyond it.
double tail_quantile(std::size_t n) {
  for (double q : {0.999, 0.99, 0.9}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

void report_te(const std::vector<Layout>& layouts, const TeRound& r,
               Report& rep) {
  for (std::size_t li = 0; li < layouts.size(); ++li) {
    const std::string& k = layouts[li].key;
    const double te = mean(r.te[li]);
    rep.modeled_layer("harness." + k + ".te_us", te, "us");
    rep.modeled_layer("sim." + k + ".instr",
                      static_cast<double>(r.client0[li].instructions), "count");
    rep.modeled_layer("sim." + k + ".icpi", r.client0[li].icpi(), "cyc/instr");
    rep.modeled_layer("sim." + k + ".mcpi", r.client0[li].mcpi(), "cyc/instr");
    if (k == "tcpip.STD" || k == "tcpip.ALL" || k == "rpc.STD" ||
        k == "rpc.ALL") {
      std::string name = "te_" + k + "_us";
      std::replace(name.begin(), name.end(), '.', '_');
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      rep.modeled_e2e(name, te, "us");
    }
  }
  rep.digest("te_digest", r.digest);
}

// ---------------------------------------------------------------------------
// Per-protocol-layer stall breakdown (MissProfile owner rows)

const char* owner_layer(const std::string& owner) {
  static const char* const kLibrary[] = {
      "bcopy",    "in_cksum", "divq",  "map_resolve", "malloc",
      "free",     "cswitch",  "stack_attach"};
  static const std::pair<const char*, const char*> kPrefixes[] = {
      {"lance_", "LANCE"},       {"eth_", "ETH"},         {"vnet_", "VNET"},
      {"ip_", "IP"},             {"tcptest_", "TCPTEST"}, {"tcp_", "TCP"},
      {"blast_", "BLAST"},       {"bid_", "BID"},         {"vchan_", "VCHAN"},
      {"chan_", "CHAN"},         {"mselect_", "MSELECT"}, {"xrpctest_", "XRPCTEST"},
      {"evt_", "xkernel"},       {"msg_", "xkernel"},     {"pool_", "xkernel"},
      {"sem_", "xkernel"}};
  for (const char* lib : kLibrary) {
    if (owner == lib) return "xkernel";
  }
  for (const auto& [prefix, layer] : kPrefixes) {
    if (owner.rfind(prefix, 0) == 0) return layer;
  }
  return "other";
}

std::vector<const char*> stack_layers(net::StackKind kind) {
  if (kind == net::StackKind::kTcpIp) {
    return {"LANCE", "ETH", "VNET", "IP", "TCP", "TCPTEST", "xkernel", "other"};
  }
  return {"LANCE", "ETH",      "BLAST",   "BID",  "CHAN",
          "VCHAN", "MSELECT", "XRPCTEST", "xkernel", "other"};
}

/// Client steady replay of STD and ALL with miss attribution, grouped into
/// protocol layers; the rows must sum exactly to the profile's totals.
void report_stall_rows(const std::vector<Layout>& layouts,
                       const Experiments& exps, Tracer& tr, Report& rep) {
  for (std::size_t li = 0; li < layouts.size(); ++li) {
    const std::string& cfg = layouts[li].client.name;
    if (cfg != "STD" && cfg != "ALL") continue;
    h::MeasureSpec spec = exps[li]->client_spec();
    spec.seed_offset = 0;
    spec.profile_misses = true;
    const h::SideMeasurement m = traced(tr, "harness", "harness::measure_side",
                                        [&] { return h::measure_side(spec); });
    const sim::MissProfile& p = *m.miss_steady;
    const std::vector<const char*> names = stack_layers(layouts[li].kind);
    std::map<std::string, std::uint64_t> rows;
    for (const char* n : names) rows[n] = 0;
    for (const sim::MissProfile::Section* sec : {&p.icache, &p.dcache}) {
      for (const sim::MissProfile::OwnerRow& o : sec->owners) {
        rows[owner_layer(o.name)] += o.stall_cycles;
      }
    }
    std::uint64_t sum = 0;
    for (const auto& [n, v] : rows) sum += v;
    const std::string key = layouts[li].key;
    rep.check(rows.size() == names.size(),
              key + " stall rows name only the stack's own layers");
    rep.check(sum == p.icache.stall_cycles + p.dcache.stall_cycles,
              key + " per-layer stall rows sum to the MissProfile totals");
    for (const char* n : names) {
      rep.modeled_layer("protocols." + key + "." + n + ".stall_cycles",
                        static_cast<double>(rows[n]), "cycles");
    }
  }
}

// ---------------------------------------------------------------------------
// Fleets

struct FleetSetup {
  h::BurstCostTable costs;
  code::FlowCacheCosts cache_costs;
  double burst_ms = 0;
  double classifier_ms = 0;
};

FleetSetup fleet_setup(const Shape& sh, std::uint64_t seed,
                       const h::MachineParams& params, Tracer& tr) {
  FleetSetup s;
  // Positions converge within a few packets; 8 cover any burst.
  const std::size_t positions = std::min<std::size_t>(sh.batch, 8);
  auto t0 = Clock::now();
  s.costs = traced(tr, "harness", "harness::measure_burst_costs", [&] {
    return h::measure_burst_costs(net::StackKind::kTcpIp,
                                  code::StackConfig::All(), positions, params);
  });
  s.burst_ms = 1e3 * seconds_since(t0);
  if (sh.rules > 0) {
    h::ClassifierCostSpec cs;
    cs.kind = net::StackKind::kTcpIp;
    cs.cfg = code::StackConfig::All();
    cs.rules = sh.rules;
    cs.rule_seed = seed;
    cs.params = params;
    t0 = Clock::now();
    s.cache_costs =
        traced(tr, "harness", "harness::measure_classifier_costs",
               [&] { return h::measure_classifier_costs(cs); })
            .costs;
    s.classifier_ms = 1e3 * seconds_since(t0);
  }
  return s;
}

h::FleetSpec fleet_spec(const Shape& sh, std::uint64_t seed,
                        const h::MachineParams& params,
                        const code::FlowCacheCosts& cache_costs) {
  h::FleetSpec f;
  f.label = sh.name;
  f.kind = net::StackKind::kTcpIp;
  f.config = code::StackConfig::All();
  f.connections = sh.connections;
  f.packets = sh.packets;
  f.batch = sh.batch;
  f.zipf_s = sh.zipf_s;
  f.seed = seed;
  f.scheme = code::FlowCacheScheme::kLru;
  f.cache_capacity = sh.capacity;
  f.cache_costs = cache_costs;
  f.rules = sh.rules;
  f.rule_seed = seed;
  f.churn_every = sh.churn_every;
  f.params = params;
  return f;
}

/// One harness::run call, reduced to what the benchmark reports.
struct FleetCall {
  std::uint64_t scheduled_sampled = 0;
  std::uint64_t sampled = 0;
  std::uint64_t handshakes = 0;
  std::uint64_t dropped = 0;
  std::uint64_t slow = 0;
  std::uint64_t churns = 0;
  code::FlowCacheStats cache;
  h::LatencyPercentiles lat;
  double mpps = 0;
  double mean_util = 0;  ///< mean over cores of busy time / makespan
  double virtual_us = 0;
  std::uint64_t digest = 0;
  bool conserved = false;
};

FleetCall run_fleet_call(const Shape& sh, const h::FleetSpec& f,
                         const h::BurstCostTable& costs, Tracer& tr) {
  FleetCall c;
  if (sh.cores == 1) {
    h::FleetRunSpec rs;
    rs.common.label = sh.name;
    rs.common.workers = 1;
    rs.rows = {f};
    rs.costs = costs;
    const h::Outcome o =
        traced(tr, "harness", "harness::run", [&] { return h::run(rs); });
    const h::FleetResult& r = o.fleet.front();
    c = {r.scheduled_sampled, r.packets_sampled, r.handshake_sampled,
         r.dropped_in_churn, r.slow_packets, r.churns, r.cache, r.latency};
    // One core, closed loop: it is busy for the sum of the priced samples.
    c.mpps = static_cast<double>(r.scheduled_sampled) /
             (r.latency.mean * static_cast<double>(r.packets_sampled));
    c.mean_util = 1.0;
    c.virtual_us = r.sim_us;
    c.digest = r.sample_digest;
    c.conserved = true;
  } else {
    h::ShardSpec s;
    s.fleet = f;
    s.cores = sh.cores;
    s.steering = h::SteeringPolicy::kFlowHash;
    h::ShardRunSpec rs;
    rs.common.label = sh.name;
    rs.common.workers = 1;
    rs.rows = {s};
    rs.costs = costs;
    const h::Outcome o =
        traced(tr, "harness", "harness::run", [&] { return h::run(rs); });
    const h::ShardResult& r = o.shard.front();
    c = {r.scheduled_sampled, r.packets_sampled, r.handshake_sampled,
         r.dropped_in_churn, r.slow_packets, r.churns, r.cache, r.latency};
    c.mpps = r.throughput_mpps;
    for (const h::ShardCoreStats& core : r.cores) {
      c.mean_util += core.utilization / static_cast<double>(r.cores.size());
    }
    c.virtual_us = r.makespan_us;
    c.digest = r.sample_digest;
    c.conserved = r.conserved;
  }
  return c;
}

void check_fleet_call(const h::FleetSpec& f, const FleetCall& c,
                      const FleetCall& first, Report& rep) {
  rep.check(f.packets == c.scheduled_sampled + c.dropped,
            "packets == scheduled + dropped");
  rep.check(c.sampled == c.scheduled_sampled + c.handshakes,
            "sampled == scheduled + handshake");
  rep.check(c.conserved, "shard conserved");
  rep.check(c.digest == first.digest,
            "repeated harness::run calls give one sample digest");
}

/// The fleet's modeled counters; a workload without a fleet reports a
/// default FleetCall, whose counters are all 0.
void report_fleet_counters(const FleetCall& c, Report& rep) {
  const double lookups =
      c.cache.lookups != 0 ? static_cast<double>(c.cache.lookups) : 1.0;
  rep.modeled_layer("code.flow_cache.hit_ratio", c.cache.hit_ratio(), "ratio");
  rep.modeled_layer("code.flow_cache.stale_ratio", c.cache.stale_ratio(),
                    "ratio");
  rep.modeled_layer("code.flow_cache.rules_examined_per_pkt",
                    static_cast<double>(c.cache.rules_examined) / lookups,
                    "rules/pkt");
  rep.modeled_layer("code.flow_cache.unmatched_scans",
                    static_cast<double>(c.cache.unmatched_scans), "count");
  rep.modeled_layer("code.flow_cache.cost_us_per_pkt", c.cache.cost_us / lookups,
                    "us");
  rep.modeled_layer("harness.slow_packets", static_cast<double>(c.slow), "count");
  rep.modeled_layer("harness.handshakes", static_cast<double>(c.handshakes),
                    "count");
  rep.modeled_layer("harness.churns", static_cast<double>(c.churns), "count");
  rep.modeled_layer("harness.dropped_in_churn", static_cast<double>(c.dropped),
                    "count");
  rep.modeled_layer("harness.mean_core_util", c.mean_util, "frac");
}

// ---------------------------------------------------------------------------
// Per-layer probes (--trace 1), sized from the workload

/// Flows one simulated world holds: the largest core's share when sharded.
std::size_t flows_per_world(const Shape& sh, std::uint64_t seed) {
  if (sh.connections == 0) return 1;
  if (sh.cores == 1) return sh.connections;
  h::FleetSpec f;
  f.connections = sh.connections;
  f.seed = seed;
  const std::vector<std::uint32_t> core =
      h::steer_flows(f, sh.cores, h::SteeringPolicy::kFlowHash);
  std::vector<std::size_t> n(sh.cores, 0);
  for (std::uint32_t c : core) ++n[c];
  return *std::max_element(n.begin(), n.end());
}

/// The demux-map sizing the fleet engine uses: 64 buckets up to 64 flows,
/// then the next power of two, capped at 2^16.
std::size_t demux_buckets(std::size_t flows) {
  std::size_t b = 64;
  while (b < flows && b < (std::size_t{1} << 16)) b <<= 1;
  return b;
}

/// Repeat `op` in batches until `min_s` seconds have passed; returns
/// seconds per op.
template <typename F>
double time_per_op(double min_s, std::size_t batch, F&& op) {
  std::uint64_t ops = 0;
  const auto t0 = Clock::now();
  double el = 0;
  do {
    for (std::size_t i = 0; i < batch; ++i) op();
    ops += batch;
    el = seconds_since(t0);
  } while (el < min_s);
  return el / static_cast<double>(ops);
}

constexpr double kProbeSeconds = 0.15;

void probe_code_and_sim(const std::vector<h::MeasureSpec>& acts, Tracer& tr,
                        Report& rep) {
  // Image build and lowering.
  double image_s = 0, lower_s = 0, lowered = 0;
  std::size_t images = 0;
  std::vector<sim::MachineTrace> traces;
  std::vector<h::MeasureSpec> specs;
  const auto t_all = Clock::now();
  do {
    for (const h::MeasureSpec& s : acts) {
      auto t0 = Clock::now();
      const code::CodeImage img = traced(tr, "code", "harness::build_image", [&] {
        return h::build_image(s.kind, s.cfg, *s.registry, *s.trace, s.params);
      });
      image_s += seconds_since(t0);
      ++images;
      code::Lowering lower(*s.registry, img, s.cfg);
      t0 = Clock::now();
      sim::MachineTrace mt = traced(tr, "code", "code::Lowering::lower",
                                    [&] { return lower.lower(*s.trace); });
      lower_s += seconds_since(t0);
      lowered += static_cast<double>(mt.size());
      if (traces.size() < acts.size()) {
        traces.push_back(std::move(mt));
        specs.push_back(s);
      }
    }
  } while (seconds_since(t_all) < kProbeSeconds);
  rep.layer("code.image_us", 1e6 * image_s / static_cast<double>(images), "us");
  rep.layer("code.lower_minstr_per_s", lowered / lower_s / 1e6, "Minstr/s");

  // Steady replay of the lowered traces: warm-up passes plus the measured
  // pass, as measure_side runs it.
  double replay_s = 0, replayed = 0;
  const auto t_rep = Clock::now();
  do {
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const h::MachineParams& p = specs[i].params;
      sim::Machine::Options o;
      o.cold_start = true;
      o.warmup_passes = p.warmup_passes;
      o.scrub_fraction = p.scrub_fraction;
      o.scrub_fraction_d = p.scrub_fraction_d;
      o.scrub_seed = p.scrub_seed;
      sim::Machine m(p.mem, p.cpu);
      const auto t0 = Clock::now();
      traced(tr, "sim", "sim::Machine::run", [&] { return m.run(traces[i], o); });
      replay_s += seconds_since(t0);
      replayed += static_cast<double>(traces[i].size()) * (o.warmup_passes + 1);
    }
  } while (seconds_since(t_rep) < kProbeSeconds);
  rep.layer("sim.replay_minstr_per_s", replayed / replay_s / 1e6, "Minstr/s");

  double side_s = 0;
  std::size_t sides = 0;
  const auto t_side = Clock::now();
  do {
    for (const h::MeasureSpec& s : acts) {
      const auto t0 = Clock::now();
      traced(tr, "harness", "harness::measure_side",
             [&] { return h::measure_side(s); });
      side_s += seconds_since(t0);
      ++sides;
    }
  } while (seconds_since(t_side) < kProbeSeconds);
  rep.layer("harness.measure_side_us",
            1e6 * side_s / static_cast<double>(sides), "us");
}

void probe_net(const std::vector<Layout>& layouts,
               const h::MachineParams& params, Tracer& tr, Report& rep,
               std::size_t& timers_per_conn) {
  double cap_s = 0;
  std::size_t caps = 0;
  const auto t_all = Clock::now();
  do {
    for (const Layout& l : layouts) {
      h::Experiment e(l.kind, l.client, l.server, params);
      const auto t0 = Clock::now();
      traced(tr, "net", "harness::Experiment::capture", [&] { e.capture(); });
      cap_s += seconds_since(t0);
      ++caps;
    }
  } while (seconds_since(t_all) < kProbeSeconds);
  rep.layer("net.capture_ms", 1e3 * cap_s / static_cast<double>(caps), "ms");

  // Warmed TCP/IP ALL ping-pong.
  net::World w(net::StackKind::kTcpIp, code::StackConfig::All(),
               code::StackConfig::All());
  w.start(~std::uint64_t{0});
  std::uint64_t done = params.warmup_roundtrips;
  bool ok = traced(tr, "net", "net::World::run_until_roundtrips",
                   [&] { return w.run_until_roundtrips(done); });
  timers_per_conn = std::max<std::size_t>(1, w.events().pending());
  constexpr std::uint64_t kBatch = 2000;
  const auto t0 = Clock::now();
  do {
    done += kBatch;
    ok = ok && traced(tr, "net", "net::World::run_until_roundtrips",
                      [&] { return w.run_until_roundtrips(done); });
  } while (ok && seconds_since(t0) < kProbeSeconds);
  rep.check(ok, "net probe: the warmed world keeps completing roundtrips");
  rep.layer("net.roundtrip_us",
            1e6 * seconds_since(t0) /
                static_cast<double>(done - params.warmup_roundtrips),
            "us");
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(splitmix64(seed) | 1) {}
  std::uint64_t next() {
    s_ ^= s_ >> 12;
    s_ ^= s_ << 25;
    s_ ^= s_ >> 27;
    return s_ * 0x2545F4914F6CDD1DULL;
  }

 private:
  std::uint64_t s_;
};

void probe_xkernel(std::size_t flows, std::size_t timers, double zipf_s,
                   std::uint64_t seed, Tracer& tr, Report& rep) {
  {
    Tracer::Scope span(tr, "xkernel", "xk::EventManager");
    constexpr std::uint64_t kHorizonUs = 1'000'000;
    xk::EventManager em;
    Rng rng(seed);
    std::vector<xk::EventManager::EventId> ids;
    ids.reserve(timers);
    for (std::size_t i = 0; i < timers; ++i) {
      ids.push_back(em.schedule_at(1 + rng.next() % kHorizonUs, [] {}));
    }
    // Cancel a random pending timer and re-arm it: the population holds.
    const double cancel = time_per_op(kProbeSeconds, 1024, [&] {
      const std::size_t j = rng.next() % ids.size();
      em.cancel(ids[j]);
      ids[j] = em.schedule_at(em.now() + 1 + rng.next() % kHorizonUs, [] {});
    });
    const double fire = time_per_op(kProbeSeconds, 1024, [&] {
      em.schedule_at(em.now() + 1 + rng.next() % kHorizonUs, [] {});
      em.advance_to_next();
    });
    rep.layer("xkernel.event_sched_fire_ns", 1e9 * fire, "ns");
    rep.layer("xkernel.event_cancel_ns", 1e9 * cancel, "ns");
  }
  {
    Tracer::Scope span(tr, "xkernel", "xk::Map");
    xk::SimAlloc arena;
    xk::Map<std::uint32_t> map(arena, demux_buckets(flows));
    // Demux key of flow i: peer address and client port, local port.
    const auto key = [](std::size_t i) {
      return xk::MapKey{(std::uint64_t{0x0A000002} << 32) | (10000 + i), 7000};
    };
    for (std::size_t i = 0; i < flows; ++i) {
      map.bind(key(i), static_cast<std::uint32_t>(i));
    }
    h::ZipfSampler zipf(flows, zipf_s, seed);
    std::uint64_t found = 0;
    const double resolve = time_per_op(kProbeSeconds, 4096, [&] {
      found += map.resolve(key(zipf.next())).has_value();
    });
    Rng rng(seed);
    const double rebind = time_per_op(kProbeSeconds, 1024, [&] {
      const std::size_t j = rng.next() % flows;
      map.unbind(key(j));
      map.bind(key(j), static_cast<std::uint32_t>(j));
    });
    rep.check(found == map.stats().lookups && map.size() == flows,
              "map probe resolves every bound flow");
    rep.layer("xkernel.map_resolve_ns", 1e9 * resolve, "ns");
    rep.layer("xkernel.map_bind_unbind_ns", 1e9 * rebind, "ns");
  }
}

void probe_classifier(const Shape& sh, std::size_t flows,
                      const code::FlowCacheCosts& costs, std::uint64_t seed,
                      Tracer& tr, Report& rep) {
  const code::PacketClassifier cls =
      traced(tr, "protocols", "proto::build_scaled_classifier", [&] {
        return proto::build_scaled_classifier(proto::RuleSetKind::kTcpIp,
                                              sh.rules, seed);
      });
  Tracer::Scope span(tr, "code", "code::FlowCache");
  // The workload's frames: the fleet's real fast-path frame, one client
  // port per flow.
  const std::vector<std::uint8_t> base =
      h::classifier_match_frame(net::StackKind::kTcpIp);
  std::vector<std::vector<std::uint8_t>> frames(flows, base);
  for (std::size_t i = 0; i < flows; ++i) {
    const std::uint32_t port = 10000 + static_cast<std::uint32_t>(i);
    frames[i][34] = static_cast<std::uint8_t>(port >> 8);
    frames[i][35] = static_cast<std::uint8_t>(port);
  }
  code::FlowCache fc(proto::tcpip_flow_key_spec(), code::FlowCacheScheme::kLru,
                     sh.capacity, costs);
  h::ZipfSampler zipf(flows, sh.zipf_s, seed);
  std::uint64_t matched = 0, looked = 0;
  const double lookup = time_per_op(kProbeSeconds, 4096, [&] {
    matched += fc.lookup(cls, frames[zipf.next()]).path_id.has_value();
    ++looked;
  });
  std::uint64_t classified = 0, tried = 0;
  const double classify = time_per_op(kProbeSeconds, 1024, [&] {
    classified += cls.classify(frames[zipf.next()]).has_value();
    ++tried;
  });
  rep.check(matched == looked && classified == tried,
            "classifier probe matches every workload frame");
  rep.layer("code.flow_cache_lookup_ns", 1e9 * lookup, "ns");
  rep.layer("code.classify_ns", 1e9 * classify, "ns");
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args& a) try {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty();
} catch (const std::exception&) {  // a malformed number
  return false;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void run_workload(const Shape& sh, const Args& args, Tracer& tr, Report& rep) {
  h::MachineParams params = h::MachineParams::defaults();
  params.scrub_seed ^= splitmix64(args.seed);
  const std::vector<Layout> layouts = paper_layouts();
  Experiments exps;
  FleetSetup fs;

  // Set-up; the first repetition's products are the ones used.  Its units
  // are the layouts' captures on paper_layouts, and the burst and
  // classifier cost tables on the fleets.
  Fastest setup;
  int setups = 0;
  const auto set_up = [&] {
    Tracer::Scope span(tr, "bench", "setup");
    if (sh.te_timed) {
      Experiments e = capture_layouts(layouts, params, tr, &setup);
      if (exps.empty()) exps = std::move(e);
    } else {
      FleetSetup s = fleet_setup(sh, args.seed, params, tr);
      rep.check(setups == 0 || (s.costs.fast_us == fs.costs.fast_us &&
                                s.costs.slow_us == fs.costs.slow_us),
                "repeated set-ups measure identical burst costs");
      setup.add(0, s.burst_ms / 1e3);
      setup.add(1, s.classifier_ms / 1e3);
      if (setups == 0) fs = std::move(s);
    }
    ++setups;
  };
  for (int i = 0; i < kSetupReps; ++i) set_up();

  // Timed phase: repeat the workload's unit until the time is used.
  Fastest unit_s;
  int reps = 0;
  double virtual_ms = 0;
  const auto t_timed = Clock::now();
  if (sh.te_timed) {
    TeRound first;
    do {
      Tracer::Scope span(tr, "bench", "te_round");
      TeRound r =
          te_round(layouts, exps, sh.te_samples, params, tr, rep, &unit_s);
      rep.timed_s += r.host_s;
      rep.attempted += r.samples;
      rep.failed += r.failed;
      rep.timed_ops += 2 * r.samples;
      virtual_ms += r.virtual_us / 1e3;
      if (reps++ == 0) {
        first = std::move(r);
      } else {
        rep.check(r.digest == first.digest,
                  "repeated Te rounds give one sample digest");
      }
      set_up();
    } while (seconds_since(t_timed) < args.seconds);
    rep.e2e("pkts_per_s",
            2.0 * static_cast<double>(first.samples) /
                unit_s.total(),
            "1/s");
    report_te(layouts, first, rep);
    const double q = tail_quantile(first.pkt.size());
    rep.modeled_e2e("pkt_p50_us", percentile(first.pkt, 0.5), "us");
    rep.modeled_e2e("pkt_tail_us", percentile(first.pkt, q), "us");
    rep.modeled_e2e("modeled_mpps", 1.0 / mean(first.pkt), "Mpps");
    report_fleet_counters(FleetCall{}, rep);
    rep.layer("harness.fleet_run_s", 0.0, "s");
  } else {
    const h::FleetSpec f = fleet_spec(sh, args.seed, params, fs.cache_costs);
    FleetCall first;
    do {
      const auto t0 = Clock::now();
      FleetCall c = run_fleet_call(sh, f, fs.costs, tr);
      const double el = seconds_since(t0);
      unit_s.add(0, el);
      rep.timed_s += el;
      rep.attempted += f.packets;
      rep.failed += c.dropped;
      rep.timed_ops += f.packets;
      virtual_ms += c.virtual_us / 1e3;
      check_fleet_call(f, c, reps == 0 ? c : first, rep);
      if (reps++ == 0) first = c;
      set_up();
    } while (seconds_since(t_timed) < args.seconds);
    rep.e2e("pkts_per_s",
            static_cast<double>(f.packets) / unit_s.total(),
            "1/s");
    rep.modeled_e2e("pkt_p50_us", first.lat.p50, "us");
    rep.modeled_e2e("pkt_tail_us", first.lat.p999, "us");
    rep.modeled_e2e("modeled_mpps", first.mpps, "Mpps");
    rep.digest("fleet_digest", first.digest);
    report_fleet_counters(first, rep);
    rep.layer("harness.fleet_run_s", unit_s.total(), "s");

    // Every workload reports the paper's Te: one untimed pass of Te samples.
    Tracer::Scope span(tr, "bench", "te_pass");
    exps = capture_layouts(layouts, params, tr);
    const TeRound r = te_round(layouts, exps, sh.te_samples, params, tr, rep);
    rep.check(r.failed == 0, "every Te sample of the post-run pass priced");
    report_te(layouts, r, rep);
  }
  rep.e2e("setup_s", setup.total(), "s");
  rep.layer("harness.host_us_per_virtual_ms", 1e6 * rep.timed_s / virtual_ms,
            "us/ms");
  rep.layer("harness.burst_costs_ms",
            sh.te_timed ? 0.0 : 1e3 * setup.of(0), "ms");
  rep.layer("harness.classifier_costs_ms",
            sh.te_timed ? 0.0 : 1e3 * setup.of(1), "ms");
  {
    Tracer::Scope span(tr, "bench", "stall_rows");
    report_stall_rows(layouts, exps, tr, rep);
  }
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");

  if (!args.trace) return;
  // Per-layer probes on the workload's own inputs.
  Tracer::Scope span(tr, "bench", "probes");
  std::vector<Layout> probe_layouts;
  std::vector<h::MeasureSpec> acts;
  for (std::size_t li = 0; li < layouts.size(); ++li) {
    // paper_layouts prices every layout's two sides; a fleet prices only
    // the TCP/IP ALL server's receive activation.
    if (!sh.te_timed && layouts[li].key != "tcpip.ALL") continue;
    probe_layouts.push_back(layouts[li]);
    if (sh.te_timed) acts.push_back(exps[li]->client_spec());
    acts.push_back(exps[li]->server_spec());
  }
  probe_code_and_sim(acts, tr, rep);
  std::size_t timers_per_conn = 1;
  probe_net(probe_layouts, params, tr, rep, timers_per_conn);
  const std::size_t flows = flows_per_world(sh, args.seed);
  probe_xkernel(flows, flows * timers_per_conn, sh.zipf_s, args.seed, tr, rep);
  probe_classifier(sh, flows, fs.cache_costs, args.seed, tr, rep);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n");
    return 2;
  }
  const Shape* shape = nullptr;
  for (const Shape& s : kShapes) {
    if (args.workload == s.name) shape = &s;
  }
  if (shape == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  Tracer tr(args.trace);
  Report rep(shape->name);
  try {
    run_workload(*shape, args, tr, rep);
    if (args.trace) {
      const std::map<std::string, double> self = tr.self_ms();
      for (const char* layer :
           {"sim", "code", "xkernel", "protocols", "net", "harness"}) {
        const auto it = self.find(layer);
        rep.layer(std::string(layer) + ".self_ms",
                  it != self.end() ? it->second : 0.0, "ms");
      }
      if (!args.spans.empty()) {
        tr.write(args.spans, args.workload + "-" + std::to_string(args.seed));
      }
    }
  } catch (const std::exception& e) {
    rep.check(false, std::string("workload raised: ") + e.what());
  }
  rep.print(args.trace, args.seed);
  return rep.correct() ? 0 : 1;
}
