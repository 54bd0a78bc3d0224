#include "sim/multi_cache.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "sim/replica.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace delta::sim {

namespace {

/// One cache endpoint of a run: its repository replica, its policy, and
/// everything the merge needs. All mutable state here is confined to one
/// worker thread between the launch and join barriers.
struct SyncReplica : ReplicaReplay {
  explicit SyncReplica(const workload::Trace* trace) : system(trace) {}

  core::DeltaSystem system;
  std::unique_ptr<core::CachePolicy> policy;
  /// Post-warm-up response samples, re-added in merged-event order.
  std::vector<LatencySample> latency_tape;
};

}  // namespace

MultiRunResult run_policy_multi(const workload::Trace& trace,
                                std::size_t endpoint_count,
                                workload::SplitStrategy strategy,
                                const CachePolicyFactory& factory,
                                std::int64_t series_stride,
                                const LatencyModel& latency,
                                const std::vector<std::uint32_t>* assignment,
                                const ParallelOptions& parallel) {
  const auto start = std::chrono::steady_clock::now();
  DELTA_CHECK(endpoint_count > 0);
  DELTA_CHECK(factory != nullptr);
  DELTA_CHECK(assignment == nullptr ||
              assignment->size() == trace.queries.size());
  const std::vector<std::uint32_t> computed_assignment =
      assignment == nullptr
          ? workload::assign_queries(trace, endpoint_count, strategy)
          : std::vector<std::uint32_t>{};
  const std::vector<std::uint32_t>& routing =
      assignment == nullptr ? computed_assignment : *assignment;
  // A replica silently skips queries routed elsewhere, so validate the
  // whole split up front (and weigh each replica by its routed queries).
  std::vector<double> weights(endpoint_count, 0.0);
  for (const std::uint32_t e : routing) {
    DELTA_CHECK(e < endpoint_count);
    weights[e] += 1.0;
  }

  std::vector<std::unique_ptr<SyncReplica>> replicas;
  replicas.reserve(endpoint_count);
  for (std::size_t i = 0; i < endpoint_count; ++i) {
    replicas.push_back(std::make_unique<SyncReplica>(&trace));
  }
  // Factories run on the calling thread in endpoint order, so they need no
  // thread-safety. Offline policies (SOptimal) emit their preload traffic
  // here, into their replica, inside the warm-up window.
  for (std::size_t i = 0; i < endpoint_count; ++i) {
    replicas[i]->policy = factory(replicas[i]->system.cache(), i);
    DELTA_CHECK(replicas[i]->policy != nullptr);
  }

  // With one endpoint every query is its own (no routing lookups) and its
  // sample stream is already the combined one (no tape).
  const bool single = endpoint_count == 1;
  const std::size_t threads = parallel.num_threads == 0
                                  ? util::ThreadPool::hardware_threads()
                                  : parallel.num_threads;
  // Replicas are LPT-packed onto the workers and a drained worker steals a
  // straggler's pending replica; that only moves WHICH thread replays a
  // replica, never its result. One worker runs them inline.
  util::parallel_for_dynamic(
      endpoint_count,
      util::lpt_assignment(weights, std::min(threads, endpoint_count)),
      [&](std::size_t i) {
        SyncReplica& replica = *replicas[i];
        replay_replica(trace, replica.system, *replica.policy,
                       single ? nullptr : &routing,
                       static_cast<std::uint32_t>(i), series_stride, latency,
                       /*latency_sink=*/nullptr,
                       single ? nullptr : &replica.latency_tape, replica);
      });

  // ---- deterministic merge, in endpoint order ----
  MultiRunResult result;
  result.strategy = strategy;
  RunResult& c = result.combined;
  std::vector<SyncReplica*> order;
  order.reserve(endpoint_count);
  for (const auto& replica : replicas) order.push_back(replica.get());
  fold_combined({order.begin(), order.end()}, series_stride, c);
  if (single) {
    c.postwarmup_latency = order.front()->result.postwarmup_latency;
  } else {
    // StreamingStats is order-sensitive in its low bits, so the samples are
    // re-added in merged-event order (positions are unique: each query
    // belongs to exactly one replica).
    merge_tapes(order, &SyncReplica::latency_tape,
                [](const LatencySample& s) { return s.order_pos; },
                [&](const LatencySample& s) {
                  c.postwarmup_latency.add(s.seconds);
                });
  }

  result.per_endpoint.reserve(endpoint_count);
  for (SyncReplica* replica : order) {
    result.per_endpoint.push_back(std::move(replica->result));
  }
  // Free the replicas inside the wall: their teardown is part of what the
  // caller waits for.
  replicas.clear();
  c.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace delta::sim
