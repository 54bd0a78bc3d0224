// Event-driven simulation engine, the one N-endpoint engine: replays the
// trace through N cache endpoints over a DelayedTransport on a
// discrete-event clock, so the quantities an analytic model could only
// estimate are *measured*:
//
//   * response time — each query's simulated completion time (request and
//     reply transfers, serialization, queueing behind earlier sends on the
//     same link) plus the execution surcharge for the path taken;
//   * server-uplink contention — how long messages leaving the repository
//     waited behind each other (DelayedTransport uplink stats);
//   * update staleness — the gap between an update's server-side ingest and
//     the delivery of its invalidation notice at each subscribed cache.
//
// The engine is a conservative parallel discrete-event simulation,
// partitioned by cache. Each partition is a full replica of the node graph
// — its own event queue, latency-aware transport, repository replica and
// cache endpoint — that replays the merged trace sequence, applying every
// update at the same sequence point and executing only the queries routed
// to it. The decomposition is exact because every message a partition
// receives (server replies, invalidation notices) is generated by its own
// replica: the conservative lookahead bound (each partition may safely
// advance to the minimum over its input links of source-clock + link
// propagation delay) degenerates to "no synchronization needed", since a
// partition is its own only source. Partitions therefore run wait-free on
// a util::ThreadPool, and a deterministic merge folds them in endpoint
// order — counters, traffic and series through the single-cache loop's
// fold (sim/replica.h), sample statistics through their merge() — so
// results are bit-identical for ANY thread count (pinned by
// event_engine_test, sim_parallel_test and sim_golden_test).
//
// Each cache is closed-loop against its own timeline: a query dispatches
// when the partition clock reaches its arrival (or as soon as that cache
// finished its previous query) and runs to completion, pumping message
// deliveries — including invalidations in flight — while it waits.
// Separate cache machines never serialize against each other's backlogs,
// which is also the physically honest model of independent cache sites.
//
// Over zero-latency links (EventEngineOptions defaults) every delivery
// lands at its send instant, and each endpoint's counters and traffic
// totals equal the single-cache loop's (sim::run_policy) over that
// endpoint's routed sub-trace; sim_golden_test pins them to the golden
// tables. The cumulative series is not always equal: a notice sent at an
// update's instant is delivered by the next event's advance, so traffic
// an invalidation handler sends on arrival (Replica's refresh) is booked
// one event later than the single-cache loop books it. Response times are
// simulated, not the single-cache loop's analytic proxy.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/cache_node.h"
#include "core/policy.h"
#include "core/protocol.h"
#include "core/server_node.h"
#include "net/delayed_transport.h"
#include "net/fault_plan.h"
#include "net/link_model.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "workload/arrival_process.h"
#include "workload/trace.h"
#include "workload/trace_split.h"

namespace delta::sim {

struct MultiRunResult {
  workload::SplitStrategy strategy = workload::SplitStrategy::kRoundRobin;
  /// One result per cache endpoint: counters and response times over the
  /// queries routed to it, traffic from its endpoint meter.
  std::vector<RunResult> per_endpoint;
  /// Aggregate view, same semantics as the single-cache run_policy result;
  /// per-endpoint figures sum to it exactly.
  RunResult combined;
};

/// Builds the policy driving endpoint `index` (already attached to `cache`).
/// The engine invokes it on the calling thread, in endpoint order, before
/// any partition replays — it never needs to be thread-safe.
using CachePolicyFactory = std::function<std::unique_ptr<core::CachePolicy>(
    core::CacheNode& cache, std::size_t index)>;

/// How the partitions replay. They run on a pool of
/// min(num_threads, endpoint_count) workers (inline on the calling thread
/// when that is one), LPT-packed by their routed-query counts, and a
/// worker that drains its own queue steals a straggler's pending
/// partition. The merge folds every partition's results and sample
/// accumulators in endpoint order, which no thread count changes, so every
/// thread count yields bit-identical results.
struct ParallelOptions {
  /// 0 = one thread per hardware core.
  std::size_t num_threads = 1;
};

/// Open-loop drive: instead of the per-cache closed loop (one query in
/// flight, the next dispatched when the previous completes), the merged
/// event stream arrives on an ArrivalProcess schedule and queries dispatch
/// through the policies' on_query_async entry point, so each cache
/// sustains up to `max_in_flight` overlapping queries. The closed loop
/// stays the golden-pinned default.
struct OpenLoopOptions {
  bool enabled = false;
  workload::ArrivalProcess::Kind arrival =
      workload::ArrivalProcess::Kind::kPoisson;
  /// Long-run mean arrival rate of the merged event stream (events/sec of
  /// simulated time). Replaces seconds_per_event as the pacing source.
  double rate_per_sec = 1000.0;
  std::uint64_t seed = 0x0A11;
  /// Per-cache bound on overlapping dispatched queries; an arrival that
  /// finds the window full queues (its wait is measured as dispatch lag).
  std::size_t max_in_flight = 64;
  /// Caps the exact response sketch by deterministic stride decimation
  /// (util::QuantileSketch bounded mode): at most ~this many samples are
  /// retained, picked by global trace position so per-shard merge still
  /// reproduces the single-stream selection. 0 = exact (every sample).
  std::size_t response_sample_cap = 0;
};

struct EventEngineOptions {
  /// Simulated seconds per trace EventTime tick: the event at merged
  /// position t arrives at t * seconds_per_event on the sim clock.
  double seconds_per_event = 0.001;
  /// Link model for every server<->cache path not listed in cache_links.
  /// The zero-latency default reproduces the golden tables exactly.
  net::LinkModel default_link = net::LinkModel::zero_latency();
  /// Per-endpoint duplex server<->cache link, indexed like the endpoints;
  /// endpoints past the end use default_link. This is the scenario axis an
  /// instantaneous network cannot express: heterogeneous WAN paths.
  std::vector<net::LinkModel> cache_links;
  /// Execution-time surcharges per query path — the same LatencyModel the
  /// single-cache loop uses, so cross-engine response comparisons share
  /// one definition. Its proxy_link is ignored here: the transfer
  /// component it prices analytically is simulated on the links instead.
  LatencyModel exec;
  std::int64_t series_stride = 2000;
  /// Worker-pool configuration for the per-partition replay. Any thread
  /// count produces bit-identical results; see sim::ParallelOptions.
  ParallelOptions parallel;
  /// Open-loop drive (off = the golden-pinned closed loop).
  OpenLoopOptions open_loop;
  /// Server-side congestion batching of invalidation notices (off = the
  /// golden-pinned one-notice-per-message fan-out).
  core::NoticeBatchingOptions notice_batching;
  /// Deterministic fault injection, installed on every replica transport
  /// (net/fault_plan.h). Message fates are pure functions of (plan seed,
  /// link endpoint names, per-link sequence), so chaos runs stay
  /// bit-identical for any thread count. A plan that can actually lose or
  /// duplicate messages requires `protocol.enabled` (checked): dropping a
  /// reply from an unhardened node would deadlock its pending request.
  net::FaultPlan fault_plan;
  /// Protocol hardening for every cache/server pair: per-request deadlines,
  /// timeout -> retry with backoff + deterministic jitter, server dedup
  /// window, partition-heal epoch resync (core/protocol.h). Off = the
  /// golden-pinned trusting protocol.
  core::ProtocolOptions protocol;
  /// Overload controller: server-side query shedding plus policy-side
  /// degraded (stale-within-t(q)-tolerance) answers.
  core::AdmissionOptions admission;
  /// Per-partition update prefiltering: a replica whose cache is not
  /// subscribed to every update (VCover/SOptimal/NoCache) and has no crash
  /// window skips the ingest of updates that provably cannot touch it — the
  /// update's object is neither named by any query routed to that partition
  /// nor registered at the replica when the factories finished, so the full
  /// replay would have made its ingest an invisible repository-size bump
  /// (no notice fires, and the size is never read). The calling thread's
  /// single decode pass over the trace marks each such partition's routed
  /// objects in one byte-per-object row; the partition ORs in its
  /// post-factory registrations and gates each update on the result by
  /// object id. Result-invariant by construction
  /// (EventEngineTest.PrefilterEquivalentToFullTapeReplay and its open-loop
  /// sibling pin filtered == full byte-for-byte); the toggle exists for
  /// those tests and for measuring the fan-out cost it removes.
  bool prefilter_updates = true;
};

/// Failure/recovery yardsticks, declared in net/fault_plan.h and merged
/// over partitions in shard order.
using ChaosYardsticks = net::ChaosYardsticks;

/// Simulated-latency yardsticks for one cache endpoint (its post-warm-up
/// response times are replay.per_endpoint[i].postwarmup_latency).
struct EndpointEventYardsticks {
  /// Ingest -> invalidation-delivered gap for notices this cache received.
  util::StreamingStats staleness_seconds;
  /// This cache's CacheNode counters (all zero with the protocol layer
  /// off).
  ChaosYardsticks protocol;
  /// Invalidation notices the server owed this cache (its notice ledger):
  /// with the protocol on, convergence after partition-then-heal means
  /// protocol.notices_applied == notices_logged (pinned by the chaos test).
  std::int64_t notices_logged = 0;
};

struct EventRunResult {
  /// Per-endpoint + combined accounting (RunResult::postwarmup_latency
  /// holds the *simulated* response times here, not the single-cache
  /// loop's analytic proxy). per_endpoint[i].wall_seconds is that
  /// partition's replay wall time — the bench derives the parallel
  /// critical path from it.
  MultiRunResult replay;

  // ---- measured yardsticks (what the analytic proxy assumes) ----

  /// Combined post-warm-up simulated response times for percentiles (every
  /// sample, or the OpenLoopOptions::response_sample_cap subset).
  util::QuantileSketch response_sketch;
  /// How long each query waited for its own cache to be free after its
  /// arrival (per-partition closed-loop backlog; included in the response
  /// samples). SummaryStats: count/mean/extrema only, added per query on
  /// the hot path.
  util::SummaryStats dispatch_lag_seconds;
  /// Combined ingest -> invalidation-delivered gaps.
  util::StreamingStats staleness_seconds;
  std::vector<EndpointEventYardsticks> per_endpoint;
  /// Egress contention at the repository: serialization occupancy and
  /// queueing of all messages the server sent (summed over partitions).
  net::UplinkStats server_uplink;

  /// Simulated completion time: the latest partition clock at end of run.
  double sim_duration_seconds = 0.0;
  std::int64_t delivered_messages = 0;
  /// Congestion batching: notices that rode behind another message instead
  /// of paying their own, and standalone kInvalidation messages sent
  /// (summed over partitions; zero / the full fan-out when batching is
  /// off).
  std::int64_t coalesced_notices = 0;
  std::int64_t notice_messages = 0;
  /// Failure/recovery accounting (ISSUE 8); all zero on fault-free runs.
  ChaosYardsticks chaos;

  // ---- parallel-efficiency yardsticks (ISSUE 9) ----

  /// Load balance of the query split: max/mean routed queries per
  /// partition (1.0 = perfectly balanced). This bounds the critical-path
  /// speedup the bench derives from per_endpoint[i].wall_seconds.
  double shard_balance = 1.0;
  /// Partitions replayed by a worker other than their LPT owner (zero
  /// when threads <= 1).
  std::int64_t steal_count = 0;
  /// Update ingests skipped by per-partition prefiltering, summed over
  /// partitions (zero when prefilter_updates is off or every cache
  /// subscribes to all updates).
  std::int64_t prefiltered_updates = 0;
  /// Wall time of the calling thread's work before the parallel replay
  /// (split, decode pass, node graphs, factories) and after its join
  /// (merge and teardown). With the per-partition walls they cover
  /// disjoint parts of replay.combined.wall_seconds.
  double prepare_seconds = 0.0;
  double merge_seconds = 0.0;

  [[nodiscard]] double response_p50() const {
    return response_sketch.quantile(0.50);
  }
  [[nodiscard]] double response_p99() const {
    return response_sketch.quantile(0.99);
  }
};

/// Replays the trace through N cache endpoints, one repository replica
/// each, over a latency-aware transport. `assignment`, when given, is the
/// query split to route by (indexed like Trace::queries, values <
/// endpoint_count) — pass it when a policy also needs the split (e.g.
/// sharded SOptimal hindsight) so routing and policy provably agree; null
/// recomputes it from `strategy`. Deterministic: repeated runs, and runs
/// at any `options.parallel.num_threads`, produce identical results
/// (per-partition discrete-event schedules with stable ordering plus an
/// endpoint-order merge).
EventRunResult run_policy_event(
    const workload::Trace& trace, std::size_t endpoint_count,
    workload::SplitStrategy strategy, const CachePolicyFactory& factory,
    const EventEngineOptions& options = EventEngineOptions{},
    const std::vector<std::uint32_t>* assignment = nullptr);

}  // namespace delta::sim
