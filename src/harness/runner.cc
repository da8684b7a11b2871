#include "harness/runner.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <exception>
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

/// The envelope every overload shares: attach the section, read its
/// schema back, and write it to common.out_path when set.
void finish(Outcome& o, const RunnerSpec& common, Json section) {
  const Json* schema = section.find("schema");
  if (schema != nullptr && schema->as_string() != nullptr) {
    o.schema = *schema->as_string();
  }
  o.section = std::move(section);
  if (common.out_path.empty()) return;
  write_json_file(common.out_path, o.section);
  o.out_path = common.out_path;
}

/// Run `fn(row)` for every row on the shared pool, storing results by row
/// index; returns the workers used.
template <typename Row, typename Result, typename Fn>
std::size_t run_rows(const std::vector<Row>& rows, unsigned workers,
                     std::vector<Result>& results, Fn fn) {
  results.resize(rows.size());
  return run_indexed_jobs(rows.size(), workers, [&](std::size_t i) {
    results[i] = fn(rows[i]);
  });
}

}  // namespace

Outcome run(const FleetRunSpec& spec) {
  Outcome o;
  o.workers_used =
      run_rows(spec.rows, spec.common.workers, o.fleet,
               [&](const FleetSpec& row) { return run_fleet(row, spec.costs); });
  finish(o, spec.common, fleet_json(spec.costs, o.fleet));
  return o;
}

Outcome run(const ShardRunSpec& spec) {
  Outcome o;
  o.shard = fleet_detail::run_shards(spec.rows, spec.costs,
                                     spec.common.workers, o.workers_used);
  finish(o, spec.common, shard_json(spec.costs, o.shard));
  return o;
}

Outcome run(const RecoveryRunSpec& spec) {
  Outcome o;
  o.workers_used = run_rows(spec.rows, spec.common.workers, o.recovery,
                            [&](const RecoverySpec& row) {
                              return run_recovery(row, spec.costs);
                            });
  finish(o, spec.common, recovery_json(spec.costs, o.recovery));
  return o;
}

Outcome run(const LbRunSpec& spec) {
  Outcome o;
  o.workers_used =
      run_rows(spec.rows, spec.common.workers, o.lb,
               [&](const LbSpec& row) { return run_lb(row, spec.costs); });
  finish(o, spec.common, lb_json(spec.costs, o.lb));
  return o;
}

Outcome run(const SoakRunSpec& spec) {
  Outcome o;
  o.workers_used = run_rows(spec.rows, spec.common.workers, o.soak,
                            [](const SoakSpec& row) { return run_soak(row); });
  for (const SoakReport& r : o.soak) o.ok = o.ok && r.ok();
  finish(o, spec.common, soak_json(spec.rows, o.soak));
  return o;
}

Outcome run(const StreamRunSpec& spec) {
  Outcome o;
  o.workers_used = run_rows(
      spec.rows, spec.common.workers, o.stream, [](const StreamRowSpec& row) {
        return row.kind == net::StackKind::kTcpIp
                   ? measure_tcp_throughput(row.config, row.bytes)
                   : measure_rpc_throughput(row.config, row.calls,
                                            row.call_bytes);
      });
  finish(o, spec.common, stream_json(spec.rows, o.stream));
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
      row.set("kind", net::to_string(s.kind))
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
          .set("kind", net::to_string(s.kind))
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
