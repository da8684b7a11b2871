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
      // Each side is prepared once: the result replays it (profiled when
      // the job asks), the Te samples replay it unprofiled.
      const PreparedSide client = prepare_side(cspec);
      const PreparedSide server = prepare_side(sspec);
      out[i].result = combine_sides(replay_side(client, cspec.seed_offset),
                                    replay_side(server, sspec.seed_offset),
                                    e.controller_us());
      out[i].te_samples = sample_te(client, server, e.controller_us(),
                                    job.te_sample_count);
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

Experiment SweepRunner::capture(const SweepJob& job) {
  return cache_.get(job.kind, job.client, job.server, job.params)
      .experiment->reconfigured(job.client, job.server, job.params);
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
      .set("bcache", cache_json(r.bcache))
      .set("stalls", Json::object()
                         .set("ifetch", r.stalls.ifetch_stall_cycles)
                         .set("load", r.stalls.load_stall_cycles)
                         .set("store", r.stalls.store_stall_cycles));
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
      .set("footprint",
           Json::object()
               .set("unused_fraction", m.footprint.unused_fraction)
               .set("blocks_fetched", m.footprint.blocks_fetched))
      .set("cold", run_json(m.cold))
      .set("steady", run_json(m.steady));
}

}  // namespace

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

void write_sweep_json(std::ostream& os, const std::string& bench,
                      const SweepRunner& runner,
                      const std::vector<SweepJob>& jobs,
                      const std::vector<SweepOutcome>& outcomes) {
  sweep_json(bench, runner, jobs, outcomes).dump(os);
  os << '\n';
}

}  // namespace l96::harness
