#include "harness/sweep.h"

#include <chrono>
#include <ostream>
#include <stdexcept>

#include "harness/missmap.h"
#include "harness/runner.h"

namespace l96::harness {

namespace {

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void append_functional_fields(std::string& key, const code::StackConfig& c) {
  // Every field that changes the recorded PathTrace or the registry
  // contents: the Section-2 toggles resize blocks and alter functional
  // behaviour; path_inlining brackets classifier misses in slow-path
  // markers.  Layout-only fields are deliberately absent.
  const bool bits[] = {c.tcb_word_fields,       c.msg_refresh_shortcut,
                       c.usc_sparse_descriptors, c.inline_map_cache_test,
                       c.avoid_int_division,     c.careful_inlining,
                       c.minor_opts,             c.header_prediction,
                       c.path_inlining};
  for (bool b : bits) key.push_back(b ? '1' : '0');
}

}  // namespace

void SweepOutcome::extra_json(const std::string& key, Json section) {
  if (!section.is_object()) {
    throw std::invalid_argument("extra_json('" + key +
                                "'): section must be a JSON object");
  }
  const Json* schema = section.find("schema");
  if (schema == nullptr || schema->as_string() == nullptr ||
      schema->as_string()->empty()) {
    throw std::invalid_argument(
        "extra_json('" + key +
        "'): section must carry a string \"schema\" field "
        "(start from json_section())");
  }
  sections_.set(key, std::move(section));
}

std::string capture_key(net::StackKind kind, const code::StackConfig& ccfg,
                        const code::StackConfig& scfg,
                        std::uint64_t warmup_roundtrips) {
  std::string key = kind == net::StackKind::kTcpIp ? "tcpip/" : "rpc/";
  append_functional_fields(key, ccfg);
  key.push_back('/');
  append_functional_fields(key, scfg);
  key += "/w" + std::to_string(warmup_roundtrips);
  return key;
}

const TraceCaptureCache::Entry& TraceCaptureCache::get(
    net::StackKind kind, const code::StackConfig& ccfg,
    const code::StackConfig& scfg, const MachineParams& params,
    bool* was_cached) {
  const std::string key =
      capture_key(kind, ccfg, scfg, params.warmup_roundtrips);
  auto it = entries_.find(key);
  if (was_cached != nullptr) *was_cached = it != entries_.end();
  if (it != entries_.end()) return it->second;

  const auto t0 = std::chrono::steady_clock::now();
  Entry e;
  e.experiment = std::make_unique<Experiment>(kind, ccfg, scfg, params);
  e.experiment->capture();
  e.capture_wall_ms = wall_ms_since(t0);
  return entries_.emplace(key, std::move(e)).first->second;
}

SweepRunner::SweepRunner(unsigned threads)
    : threads_(resolve_workers(threads)) {}

std::vector<SweepOutcome> SweepRunner::run(const std::vector<SweepJob>& jobs) {
  std::vector<SweepOutcome> out(jobs.size());

  // Phase 1 (serial): resolve every job's capture through the cache.  The
  // worlds mutate while capturing, so this stays single-threaded; the
  // resulting traces and registries are immutable afterwards.
  std::vector<const Experiment*> captures(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    bool cached = false;
    const TraceCaptureCache::Entry& e = cache_.get(
        jobs[i].kind, jobs[i].client, jobs[i].server, jobs[i].params, &cached);
    captures[i] = e.experiment.get();
    out[i].label =
        jobs[i].label.empty() ? jobs[i].client.name : jobs[i].label;
    out[i].trace_reused = cached;
    out[i].capture_wall_ms = cached ? 0.0 : e.capture_wall_ms;
  }

  // Phase 2 (parallel): lower + simulate each job.  measure_side() reads
  // only the shared registry/trace, so jobs share nothing writable.  Errors
  // are kept per index so the lowest failing job is the one reported,
  // whichever worker hit it first.
  std::vector<std::string> errors(jobs.size());
  workers_used_ = run_indexed_jobs(jobs.size(), threads_, [&](std::size_t i) {
    const SweepJob& job = jobs[i];
    const Experiment& e = *captures[i];
    const auto t0 = std::chrono::steady_clock::now();
    try {
      MeasureSpec cspec = e.client_spec();
      MeasureSpec sspec = e.server_spec();
      cspec.cfg = job.client;
      sspec.cfg = job.server;
      cspec.params = sspec.params = job.params;
      cspec.profile_misses = sspec.profile_misses = job.profile_misses;
      out[i].result = measure_config(cspec, sspec, e.controller_us());
      out[i].te_samples =
          sample_te(cspec, sspec, e.controller_us(), job.te_sample_count);
      if (job.profile_misses) {
        out[i].extra_json("missmap", missmap_json(out[i].result));
      }
    } catch (const std::exception& ex) {
      errors[i] = ex.what();
    }
    out[i].measure_wall_ms = wall_ms_since(t0);
  });

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!errors[i].empty()) {
      throw std::runtime_error("sweep job '" + out[i].label +
                               "' failed: " + errors[i]);
    }
  }
  return out;
}

// --- JSON emission ---------------------------------------------------------

namespace {

Json cache_json(const sim::CacheStats& s) {
  return Json::object()
      .set("accesses", s.accesses)
      .set("misses", s.misses)
      .set("repl_misses", s.repl_misses);
}

Json run_json(const sim::RunResult& r) {
  return Json::object()
      .set("instructions", r.instructions)
      .set("cycles", r.cycles())
      .set("issue_cycles", r.issue_cycles)
      .set("stall_cycles", r.stall_cycles)
      .set("taken_branches", r.taken_branches)
      .set("cpi", r.cpi())
      .set("icpi", r.icpi())
      .set("mcpi", r.mcpi())
      .set("icache", cache_json(r.icache))
      .set("dcache", cache_json(r.dcache_combined))
      .set("bcache", cache_json(r.bcache));
}

Json side_json(const SideMeasurement& m) {
  return Json::object()
      .set("config", m.config_name)
      .set("instructions", m.instructions)
      .set("critical_instructions", m.critical_instructions)
      .set("tp_us", m.tp_us)
      .set("critical_us", m.critical_us)
      .set("static_hot_words", m.static_hot_words)
      .set("static_total_words", m.static_total_words)
      .set("cold", run_json(m.cold))
      .set("steady", run_json(m.steady));
}

Json sweep_json(const std::string& bench, const SweepRunner& runner,
                const std::vector<SweepJob>& jobs,
                const std::vector<SweepOutcome>& outcomes) {
  Json configs = Json::array();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const SweepOutcome& o = outcomes[i];
    const bool rpc = i < jobs.size() && jobs[i].kind == net::StackKind::kRpc;
    Json row = Json::object()
                   .set("label", o.label)
                   .set("stack", rpc ? "rpc" : "tcpip")
                   .set("trace_reused", o.trace_reused)
                   .set("wall_ms", Json::object()
                                       .set("capture", o.capture_wall_ms)
                                       .set("measure", o.measure_wall_ms))
                   .set("te_us", o.result.te_us)
                   .set("te_adjusted_us", o.result.te_adjusted)
                   .set("client", side_json(o.result.client))
                   .set("server", side_json(o.result.server));
    if (!o.te_samples.empty()) {
      Json samples = Json::array();
      for (double te : o.te_samples) samples.push_back(te);
      row.set("te_samples", std::move(samples));
    }
    if (const Json::Object* sections = o.sections().as_object()) {
      for (const auto& [k, v] : *sections) row.set(k, v);
    }
    configs.push_back(std::move(row));
  }
  return emit_section("sweep", 1)
      .set("bench", bench)
      .set("threads", static_cast<std::uint64_t>(runner.thread_count()))
      .set("workers_used", runner.workers_used())
      .set("captures", runner.captures_performed())
      .set("configs", std::move(configs));
}

}  // namespace

void write_sweep_json(std::ostream& os, const std::string& bench,
                      const SweepRunner& runner,
                      const std::vector<SweepJob>& jobs,
                      const std::vector<SweepOutcome>& outcomes) {
  sweep_json(bench, runner, jobs, outcomes).dump(os);
  os << '\n';
}

std::string write_sweep_metrics(const std::string& bench,
                                const SweepRunner& runner,
                                const std::vector<SweepJob>& jobs,
                                const std::vector<SweepOutcome>& outcomes,
                                const std::string& out_dir) {
  const std::string path = out_dir + "/" + bench + ".json";
  write_json_file(path, sweep_json(bench, runner, jobs, outcomes));
  return path;
}

}  // namespace l96::harness
