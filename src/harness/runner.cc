#include "harness/runner.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "harness/fleet_internal.h"

namespace l96::harness {

unsigned resolve_workers(unsigned requested) {
  return requested != 0 ? requested
                        : std::max(2u, std::thread::hardware_concurrency());
}

std::size_t run_indexed_jobs(std::size_t n, unsigned threads,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return 0;
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;
  const unsigned n_workers =
      static_cast<unsigned>(std::min<std::size_t>(resolve_workers(threads), n));
  std::vector<char> worked(n_workers, 0);

  auto worker = [&](unsigned wi) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      worked[wi] = 1;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(n_workers);
  for (unsigned wi = 0; wi < n_workers; ++wi) pool.emplace_back(worker, wi);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return static_cast<std::size_t>(
      std::count(worked.begin(), worked.end(), 1));
}

namespace {

/// Write the section to common.out_path when set; returns the path used.
std::string write_out(const RunnerSpec& common, const Json& section) {
  if (common.out_path.empty()) return {};
  const std::filesystem::path path(common.out_path);
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream f(path);
  if (!f) {
    throw std::runtime_error("run: cannot open output path " +
                             common.out_path);
  }
  f << section.dump() << "\n";
  return common.out_path;
}

std::string schema_of(const Json& section) {
  // Every emitted section starts {"schema":"l96.<name>.vN",...}; pulling
  // it back out of the ordered object keeps Outcome.schema authoritative
  // without a parallel bookkeeping path.
  const std::string d = section.dump();
  const std::string key = "{\"schema\":\"";
  if (d.rfind(key, 0) != 0) return {};
  const std::size_t end = d.find('"', key.size());
  return end == std::string::npos ? std::string{}
                                  : d.substr(key.size(), end - key.size());
}

}  // namespace

Outcome run(const FleetRunSpec& spec) {
  Outcome o;
  o.fleet.resize(spec.rows.size());
  o.workers_used = run_indexed_jobs(
      spec.rows.size(), spec.common.workers,
      [&](std::size_t i) { o.fleet[i] = run_fleet(spec.rows[i], spec.costs); });
  o.section = fleet_json(spec.costs, o.fleet);
  o.schema = schema_of(o.section);
  o.out_path = write_out(spec.common, o.section);
  return o;
}

Outcome run(const ShardRunSpec& spec) {
  Outcome o;
  o.shard = fleet_detail::run_shards(spec.rows, spec.costs,
                                     spec.common.workers, o.workers_used);
  o.section = shard_json(spec.costs, o.shard);
  o.schema = schema_of(o.section);
  o.out_path = write_out(spec.common, o.section);
  return o;
}

Outcome run(const RecoveryRunSpec& spec) {
  Outcome o;
  o.recovery.resize(spec.rows.size());
  o.workers_used =
      run_indexed_jobs(spec.rows.size(), spec.common.workers,
                       [&](std::size_t i) {
                         o.recovery[i] = run_recovery(spec.rows[i], spec.costs);
                       });
  o.section = recovery_json(spec.costs, o.recovery);
  o.schema = schema_of(o.section);
  o.out_path = write_out(spec.common, o.section);
  return o;
}

Outcome run(const LbRunSpec& spec) {
  Outcome o;
  o.lb.resize(spec.rows.size());
  o.workers_used = run_indexed_jobs(
      spec.rows.size(), spec.common.workers,
      [&](std::size_t i) { o.lb[i] = run_lb(spec.rows[i], spec.costs); });
  o.section = lb_json(spec.costs, o.lb);
  o.schema = schema_of(o.section);
  o.out_path = write_out(spec.common, o.section);
  return o;
}

Outcome run(const SoakRunSpec& spec) {
  Outcome o;
  o.soak.resize(spec.rows.size());
  o.workers_used = run_indexed_jobs(
      spec.rows.size(), spec.common.workers,
      [&](std::size_t i) { o.soak[i] = run_soak(spec.rows[i]); });
  for (const SoakReport& r : o.soak) o.ok = o.ok && r.ok();
  o.section = soak_json(spec.rows, o.soak);
  o.schema = schema_of(o.section);
  o.out_path = write_out(spec.common, o.section);
  return o;
}

Outcome run(const StreamRunSpec& spec) {
  Outcome o;
  o.stream.resize(spec.rows.size());
  o.workers_used = run_indexed_jobs(
      spec.rows.size(), spec.common.workers, [&](std::size_t i) {
        const StreamRowSpec& row = spec.rows[i];
        o.stream[i] =
            row.kind == net::StackKind::kTcpIp
                ? measure_tcp_throughput(row.config, row.bytes)
                : measure_rpc_throughput(row.config, row.calls,
                                         row.call_bytes);
      });
  o.section = stream_json(spec.rows, o.stream);
  o.schema = schema_of(o.section);
  o.out_path = write_out(spec.common, o.section);
  return o;
}

Json soak_json(const std::vector<SoakSpec>& specs,
               const std::vector<SoakReport>& reports) {
  Json section = emit_section("soak", 1);
  Json rows = Json::array();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const SoakReport& r = reports[i];
    Json row = Json::object();
    if (i < specs.size()) {
      const SoakSpec& s = specs[i];
      row.set("kind", s.kind == net::StackKind::kTcpIp ? "tcpip" : "rpc")
          .set("roundtrips_target", s.roundtrips)
          .set("msg_bytes", static_cast<std::uint64_t>(s.msg_bytes))
          .set("chaos", s.chaos);
    }
    row.set("ok", r.ok())
        .set("completed", r.completed)
        .set("roundtrips", r.roundtrips)
        .set("virtual_us", r.virtual_us)
        .set("mean_roundtrip_us", r.mean_roundtrip_us)
        .set("integrity_failures", r.integrity_failures)
        .set("failed_calls", r.failed_calls)
        .set("pending_events", static_cast<std::uint64_t>(r.pending_events))
        .set("live_connections",
             static_cast<std::uint64_t>(r.live_connections))
        .set("busy_channels", static_cast<std::uint64_t>(r.busy_channels))
        .set("reassemblies_pending",
             static_cast<std::uint64_t>(r.reassemblies_pending))
        .set("conserved", r.conserved)
        .set("faults", Json::object()
                           .set("drops", r.faults.drops)
                           .set("corrupts", r.faults.corrupts)
                           .set("duplicates", r.faults.duplicates)
                           .set("reorders", r.faults.reorders)
                           .set("delays", r.faults.delays))
        .set("tcp_retransmits", r.tcp_retransmits)
        .set("tcp_bad_checksums", r.tcp_bad_checksums)
        .set("chan_retransmits", r.chan_retransmits)
        .set("blast_nacks", r.blast_nacks)
        .set("blast_bad_frames", r.blast_bad_frames)
        .set("fault_log_hash", r.fault_log_hash)
        .set("reconnects", r.reconnects)
        .set("blackout_drops", r.blackout_drops)
        .set("frames_to_dead", r.frames_to_dead)
        .set("purged_events", static_cast<std::uint64_t>(r.purged_events))
        .set("server_incarnation",
             static_cast<std::uint64_t>(r.server_incarnation))
        .set("summary", r.summary());
    rows.push_back(std::move(row));
  }
  section.set("rows", std::move(rows));
  return section;
}

Json stream_json(const std::vector<StreamRowSpec>& specs,
                 const std::vector<ThroughputResult>& results) {
  Json section = emit_section("stream", 1);
  Json rows = Json::array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ThroughputResult& r = results[i];
    Json row = Json::object();
    if (i < specs.size()) {
      const StreamRowSpec& s = specs[i];
      row.set("label", s.label)
          .set("kind", s.kind == net::StackKind::kTcpIp ? "tcpip" : "rpc")
          .set("config", s.config.name);
    }
    row.set("bytes", r.bytes)
        .set("wire_seconds", r.wire_seconds)
        .set("processing_us", r.processing_us)
        .set("proc_seconds", r.proc_seconds)
        .set("kbytes_per_second", r.kbytes_per_second)
        .set("frames", r.frames)
        .set("frames_delivered", r.frames_delivered)
        .set("retransmits", r.retransmits);
    rows.push_back(std::move(row));
  }
  section.set("rows", std::move(rows));
  return section;
}

}  // namespace l96::harness
