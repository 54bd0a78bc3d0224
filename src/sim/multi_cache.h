// Multi-endpoint simulation: N cache endpoints, each driven by its own
// policy instance against its own repository replica (a core::DeltaSystem).
//
// Queries are routed to endpoints by a workload::SplitStrategy; every
// replica replays the whole merged event sequence, applying every update
// and running only the queries routed to it (sim/replica.h). Results come
// back at two granularities — a RunResult per endpoint (from that
// endpoint's meter) and a combined RunResult folded from the replicas —
// so a run with one endpoint reproduces the single-cache sim::run_policy
// byte-for-byte and per-endpoint figures always sum to the combined figure.
#pragma once

#include <functional>
#include <memory>

#include "core/cache_node.h"
#include "core/policy.h"
#include "core/server_node.h"
#include "sim/simulator.h"
#include "workload/trace.h"
#include "workload/trace_split.h"

namespace delta::sim {

struct MultiRunResult {
  workload::SplitStrategy strategy = workload::SplitStrategy::kRoundRobin;
  /// One result per cache endpoint: counters/latency over the queries
  /// routed to it, traffic from its per-endpoint meter.
  std::vector<RunResult> per_endpoint;
  /// Aggregate view, same semantics as the single-cache run_policy result.
  RunResult combined;
};

/// Builds the policy driving endpoint `index` (already attached to `cache`).
/// The factory is always invoked on the calling thread, in endpoint order —
/// it never needs to be thread-safe, even in parallel runs.
using CachePolicyFactory = std::function<std::unique_ptr<core::CachePolicy>(
    core::CacheNode& cache, std::size_t index)>;

/// How the replay executes. The replicas run on a pool of
/// min(num_threads, endpoint_count) workers (inline on the calling thread
/// when that is one), LPT-packed by their routed-query counts, and a
/// worker that drains its own queue steals a straggler's pending replica.
/// The merge folds the replicas in endpoint order and re-adds the latency
/// samples in merged-event order, so every thread count yields
/// bit-identical RunResults.
struct ParallelOptions {
  /// 0 = one thread per hardware core.
  std::size_t num_threads = 1;
};

/// Replays the trace through N cache endpoints, one repository replica each.
/// `assignment`, when given, is the query split to route by (indexed like
/// Trace::queries, values < endpoint_count) — pass it when a policy also
/// needs the split (e.g. sharded SOptimal hindsight) so routing and policy
/// provably agree; null recomputes it from `strategy`.
/// `parallel` sets the worker count; every thread count yields the same
/// RunResults (see ParallelOptions).
MultiRunResult run_policy_multi(
    const workload::Trace& trace, std::size_t endpoint_count,
    workload::SplitStrategy strategy, const CachePolicyFactory& factory,
    std::int64_t series_stride = 2000,
    const LatencyModel& latency = LatencyModel{},
    const std::vector<std::uint32_t>* assignment = nullptr,
    const ParallelOptions& parallel = ParallelOptions{});

}  // namespace delta::sim
