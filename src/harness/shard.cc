#include "harness/shard.h"

#include <algorithm>
#include <stdexcept>

#include "harness/fleet_internal.h"
#include "harness/runner.h"
#include "protocols/stack_code.h"

namespace l96::harness {

namespace {

using fleet_detail::CoreRunResult;
using fleet_detail::kClientPortSpan;
using fleet_detail::kFleetClientPortBase;
using fleet_detail::kFleetRpcProcBase;
using fleet_detail::kFleetServerPort;
using fleet_detail::ScheduledBurst;
using fleet_detail::TaggedSample;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// RSS hash of global flow i's canonical label: the FlowKeySpec key over
/// the tuple (client IP, client port, server port) — (channel, procedure)
/// on RPC — that counts past one port span into adjacent client IPs /
/// channels.  It is a steering label only: the core that owns the flow
/// numbers it locally and connects it with fleet_detail::flow_ports.
std::uint32_t hash_core(const FleetSpec& fleet, const code::FlowKeySpec& key,
                        std::size_t i, std::size_t cores) {
  std::uint32_t vals[3];
  std::size_t n;
  if (fleet.kind == net::StackKind::kTcpIp) {
    vals[0] = 0x0A000001u + static_cast<std::uint32_t>(i / kClientPortSpan);
    vals[1] = static_cast<std::uint32_t>(kFleetClientPortBase +
                                         i % kClientPortSpan);
    vals[2] = kFleetServerPort;
    n = 3;
  } else {
    const std::size_t procs = 65'536 - kFleetRpcProcBase;
    vals[0] = static_cast<std::uint32_t>(i / procs);
    vals[1] = static_cast<std::uint32_t>(kFleetRpcProcBase + i % procs);
    n = 2;
  }
  return static_cast<std::uint32_t>(
      splitmix64(key.key_of_values({vals, n})) % cores);
}

void validate_shard(const ShardSpec& spec, const BurstCostTable& costs) {
  fleet_detail::validate_fleet_spec(spec.fleet, costs, spec.fleet.kind);
  if (spec.cores == 0) {
    throw std::invalid_argument("shard row: cores must be >= 1");
  }
  if (spec.arrival_us < 0) {
    throw std::invalid_argument(
        "shard row: arrival_us must be >= 0");
  }
}

/// Walk the global schedule and splice the per-core tagged streams back
/// into the fleet-wide sample order, running the open-loop queue model as
/// samples are consumed.  With one core the merged order IS the flat
/// engine's append order (every sample comes from core 0's cursor in
/// sequence), which carries the digest pin.
ShardResult merge_cores(const ShardSpec& spec,
                        const std::vector<ScheduledBurst>& schedule,
                        const std::vector<std::uint32_t>& flow_core,
                        std::vector<CoreRunResult> per_core) {
  const std::size_t ncores = spec.cores;
  ShardResult r;
  r.spec = spec;
  r.cores.resize(ncores);

  std::vector<std::size_t> cur(ncores, 0);
  std::vector<double> busy(ncores, 0.0);         // queue-model completion
  std::vector<double> service_sum(ncores, 0.0);
  std::vector<std::vector<double>> core_sojourn(ncores);
  std::vector<double> merged_service;
  std::vector<double> merged_sojourn;
  merged_service.reserve(spec.fleet.packets + spec.fleet.packets / 4);
  merged_sojourn.reserve(merged_service.capacity());
  std::uint64_t digest = fleet_detail::fnv1a_init();
  std::uint64_t g = 0;  // global scheduled-arrival index
  const std::uint32_t churn_owner = flow_core.empty() ? 0 : flow_core[0];
  const bool queued = spec.arrival_us > 0;

  const auto consume = [&](std::uint32_t c, std::uint64_t burst,
                           std::uint32_t phase) {
    const std::vector<TaggedSample>& s = per_core[c].samples;
    while (cur[c] < s.size() && s[cur[c]].burst == burst &&
           s[cur[c]].phase == phase) {
      const double us = s[cur[c]].us;
      ++cur[c];
      fleet_detail::fnv1a_value_d(digest, us);
      merged_service.push_back(us);
      service_sum[c] += us;
      double sojourn = us;
      if (queued && phase == 0) {
        const double arrival = static_cast<double>(g) * spec.arrival_us;
        const double start = std::max(busy[c], arrival);
        const double wait = start - arrival;
        busy[c] = start + us;
        sojourn = busy[c] - arrival;
        if (wait > r.cores[c].max_wait_us) r.cores[c].max_wait_us = wait;
      } else {
        busy[c] += us;
      }
      if (phase == 0) ++g;
      merged_sojourn.push_back(sojourn);
      core_sojourn[c].push_back(sojourn);
    }
  };

  for (std::size_t b = 0; b < schedule.size(); ++b) {
    const ScheduledBurst& sb = schedule[b];
    consume(flow_core[sb.flow], b, /*phase=*/0);
    if (sb.churn_after) consume(churn_owner, b, /*phase=*/1);
  }

  bool cores_conserved = true;
  for (std::size_t c = 0; c < ncores; ++c) {
    ShardCoreStats& cs = r.cores[c];
    cs.core = static_cast<std::uint32_t>(c);
    cs.fleet = std::move(per_core[c].result);
    cs.sojourn = fleet_detail::percentiles(core_sojourn[c]);
    cs.busy_us = service_sum[c];
    if (cur[c] != per_core[c].samples.size() ||
        !conservation_error(cs.fleet).empty()) {
      cores_conserved = false;
    }
    r.cache.merge(cs.fleet.cache);
    if (service_sum[c] > service_sum[r.hot_core]) {
      r.hot_core = static_cast<std::uint32_t>(c);
    }
  }
  const auto sum = [&r](std::uint64_t FleetResult::*counter) {
    std::uint64_t total = 0;
    for (const ShardCoreStats& cs : r.cores) total += cs.fleet.*counter;
    return total;
  };
  r.owned_packets = sum(&FleetResult::owned_packets);
  r.packets_sampled = sum(&FleetResult::packets_sampled);
  r.scheduled_sampled = sum(&FleetResult::scheduled_sampled);
  r.handshake_sampled = sum(&FleetResult::handshake_sampled);
  r.dropped_in_churn = sum(&FleetResult::dropped_in_churn);
  r.lost_packets = sum(&FleetResult::lost_packets);
  r.bursts = sum(&FleetResult::bursts);
  r.slow_packets = sum(&FleetResult::slow_packets);
  r.churns = sum(&FleetResult::churns);
  for (std::uint32_t c : flow_core) ++r.cores[c].flows;

  r.makespan_us = 0;
  for (std::size_t c = 0; c < ncores; ++c) {
    r.makespan_us = std::max(r.makespan_us, busy[c]);
  }
  for (std::size_t c = 0; c < ncores; ++c) {
    r.cores[c].utilization =
        r.makespan_us > 0 ? service_sum[c] / r.makespan_us : 0;
  }
  r.latency = fleet_detail::percentiles(merged_service);
  r.sojourn = fleet_detail::percentiles(merged_sojourn);
  r.sample_digest = digest;
  r.throughput_mpps =
      r.makespan_us > 0
          ? static_cast<double>(r.scheduled_sampled) / r.makespan_us
          : 0;
  r.conserved = cores_conserved && r.owned_packets == spec.fleet.packets;
  return r;
}

}  // namespace

const char* to_string(SteeringPolicy p) noexcept {
  return p == SteeringPolicy::kFlowHash ? "hash" : "least";
}

SteeringPolicy steering_policy_from_string(const std::string& s) {
  if (s == "hash" || s == "flow_hash") return SteeringPolicy::kFlowHash;
  if (s == "least" || s == "least_loaded") return SteeringPolicy::kLeastLoaded;
  throw std::invalid_argument("unknown steering policy '" + s +
                              "' (expected hash|least)");
}

std::vector<std::uint32_t> steer_flows(const FleetSpec& fleet,
                                       std::size_t cores, SteeringPolicy p) {
  if (cores == 0) {
    throw std::invalid_argument("steer_flows: cores must be >= 1");
  }
  std::vector<std::uint32_t> map(fleet.connections, 0);
  if (cores == 1) return map;
  const code::FlowKeySpec key = fleet.kind == net::StackKind::kTcpIp
                                    ? proto::tcpip_flow_key_spec()
                                    : proto::rpc_flow_key_spec();
  if (p == SteeringPolicy::kFlowHash) {
    for (std::size_t i = 0; i < fleet.connections; ++i) {
      map[i] = hash_core(fleet, key, i, cores);
    }
    return map;
  }

  // Least-loaded: walk the (deterministic) schedule; a flow is assigned on
  // first appearance to the core with the least scheduled packets so far
  // and sticks there.  Flows the schedule never draws steer by hash.
  const std::vector<ScheduledBurst> schedule =
      fleet_detail::build_schedule(fleet);
  std::vector<std::uint64_t> load(cores, 0);
  std::vector<char> assigned(fleet.connections, 0);
  for (const ScheduledBurst& b : schedule) {
    if (!assigned[b.flow]) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < cores; ++c) {
        if (load[c] < load[best]) best = c;
      }
      map[b.flow] = static_cast<std::uint32_t>(best);
      assigned[b.flow] = 1;
    }
    load[map[b.flow]] += b.len;
  }
  for (std::size_t i = 0; i < fleet.connections; ++i) {
    if (!assigned[i]) map[i] = hash_core(fleet, key, i, cores);
  }
  return map;
}

namespace fleet_detail {

std::vector<ShardResult> run_shards(const std::vector<ShardSpec>& rows,
                                    const BurstCostTable& costs,
                                    unsigned workers,
                                    std::size_t& workers_used) {
  // The schedule and steering are pure functions of each spec, computed
  // serially up front; the merges run serially at the end.
  struct RowPlan {
    std::vector<ScheduledBurst> schedule;
    std::vector<std::uint32_t> flow_core;
    std::vector<CoreRunResult> per_core;
  };
  std::vector<RowPlan> plans(rows.size());
  struct Job {
    std::size_t row;
    std::size_t core;
  };
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    validate_shard(rows[i], costs);
    RowPlan& p = plans[i];
    p.schedule = build_schedule(rows[i].fleet);
    p.flow_core = steer_flows(rows[i].fleet, rows[i].cores, rows[i].steering);
    p.per_core.resize(rows[i].cores);
    for (std::size_t c = 0; c < rows[i].cores; ++c) jobs.push_back({i, c});
  }

  workers_used = run_indexed_jobs(jobs.size(), workers, [&](std::size_t j) {
    const Job job = jobs[j];
    RowPlan& p = plans[job.row];
    p.per_core[job.core] = run_fleet_core(
        rows[job.row].fleet, costs, p.schedule, p.flow_core,
        static_cast<std::uint32_t>(job.core));
  });

  std::vector<ShardResult> out(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out[i] = merge_cores(rows[i], plans[i].schedule, plans[i].flow_core,
                         std::move(plans[i].per_core));
  }
  return out;
}

}  // namespace fleet_detail

Json shard_json(const BurstCostTable& costs,
                const std::vector<ShardResult>& rows) {
  Json section = emit_section("shard", 1);
  section.set("costs", fleet_detail::costs_json(costs));
  Json out_rows = Json::array();
  for (const ShardResult& r : rows) {
    Json per_core = Json::array();
    for (const ShardCoreStats& c : r.cores) {
      per_core.push_back(
          Json::object()
              .set("core", static_cast<std::uint64_t>(c.core))
              .set("flows", static_cast<std::uint64_t>(c.flows))
              .set("owned_packets", c.fleet.owned_packets)
              .set("packets_sampled", c.fleet.packets_sampled)
              .set("scheduled_sampled", c.fleet.scheduled_sampled)
              .set("handshake_sampled", c.fleet.handshake_sampled)
              .set("dropped_in_churn", c.fleet.dropped_in_churn)
              .set("lost_packets", c.fleet.lost_packets)
              .set("bursts", c.fleet.bursts)
              .set("slow_packets", c.fleet.slow_packets)
              .set("churns", c.fleet.churns)
              .set("cache", fleet_detail::cache_json(c.fleet.cache))
              .set("service_us",
                   fleet_detail::percentiles_json(c.fleet.latency))
              .set("sojourn_us", fleet_detail::percentiles_json(c.sojourn))
              .set("busy_us", c.busy_us)
              .set("utilization", c.utilization)
              .set("max_wait_us", c.max_wait_us)
              .set("sample_digest", c.fleet.sample_digest));
    }
    Json row = fleet_detail::spec_json(r.spec.fleet);
    row.set("cores", static_cast<std::uint64_t>(r.spec.cores))
        .set("steering", to_string(r.spec.steering))
        .set("arrival_us", r.spec.arrival_us)
        .set("owned_packets", r.owned_packets)
        .set("packets_sampled", r.packets_sampled)
        .set("scheduled_sampled", r.scheduled_sampled)
        .set("handshake_sampled", r.handshake_sampled)
        .set("dropped_in_churn", r.dropped_in_churn)
        .set("lost_packets", r.lost_packets)
        .set("bursts", r.bursts)
        .set("slow_packets", r.slow_packets)
        .set("churns", r.churns)
        .set("cache", fleet_detail::cache_json(r.cache))
        .set("latency_us", fleet_detail::percentiles_json(r.latency))
        .set("sojourn_us", fleet_detail::percentiles_json(r.sojourn))
        .set("sample_digest", r.sample_digest)
        .set("makespan_us", r.makespan_us)
        .set("throughput_mpps", r.throughput_mpps)
        .set("hot_core", static_cast<std::uint64_t>(r.hot_core))
        .set("conserved", r.conserved)
        .set("per_core", std::move(per_core));
    out_rows.push_back(std::move(row));
  }
  section.set("rows", std::move(out_rows));
  return section;
}

}  // namespace l96::harness
