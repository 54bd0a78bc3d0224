#include "sim/event_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "core/cache_node.h"
#include "core/server_node.h"
#include "sim/replica.h"
#include "util/check.h"
#include "util/event_queue.h"
#include "util/thread_pool.h"

namespace delta::sim {

namespace {

/// Prefetch lookahead, in routed queries of one partition. A partition's
/// query records sit at irregular positions in trace.queries, out of the
/// hardware prefetcher's reach, so each query's decoded event names the
/// query this many routed queries later on the same partition, and the
/// partition prefetches that record when it dispatches.
constexpr std::size_t kPrefetchLead = 8;
constexpr std::uint32_t kNoQuery = std::numeric_limits<std::uint32_t>::max();

/// One event of the shared decoded replay stream: the merged-order record
/// every partition walks. Decoded once on the calling thread — trace-order
/// indirection, timestamp lookup, routing lookup and the arrival-instant
/// conversion are paid once instead of once per partition, and updates
/// enter the replicas through the trusted by-index ingest (the identity of
/// a trace entry with itself needs no per-replica validation).
struct DecodedEvent {
  double arrival = 0.0;   // now * seconds_per_event, partition-clock units
  EventTime now = 0;
  std::uint32_t index = 0;  // into trace.queries or trace.updates
  union {
    std::uint32_t object = 0;  // an update's object (the prefilter's key)
    std::uint32_t endpoint;    // a query's routed partition
  };
  /// A query's lookahead (see kPrefetchLead), or kNoQuery.
  std::uint32_t prefetch = kNoQuery;
  bool is_update = false;
};
static_assert(sizeof(DecodedEvent) == 32, "one event per half cache line");

/// The decoded stream plus every count and touch row the shards are sized
/// and gated from, all read off the same single pass over the trace.
struct DecodedStream {
  std::vector<DecodedEvent> events;
  /// Per partition: routed queries (the LPT weight) and the post-warm-up
  /// subset the sketch's decimation stride retains. Reserving the sketch
  /// from routed queries instead of retained samples would over-reserve
  /// stride-fold per shard — N*stride-fold across a capped open-loop run.
  std::vector<std::size_t> routed_queries;
  std::vector<std::size_t> retained_samples;
  /// Per partition that prefilters updates: one byte per object, nonzero
  /// when a query routed there names it (the routed half of the touch set,
  /// see replay_event_shard). Empty for partitions that do not prefilter.
  std::vector<std::vector<std::uint8_t>> touch_rows;
};

DecodedStream decode_stream(const workload::Trace& trace,
                            const std::vector<std::uint32_t>& routing,
                            const std::vector<bool>& prefilters,
                            std::int64_t sketch_stride,
                            const EventEngineOptions& options) {
  // Open loop: arrival instants come from the ArrivalProcess schedule (the
  // trace's merged ORDER is untouched). Generated here, once, on the
  // calling thread — every partition walks the identical tape, so results
  // stay bit-identical for any thread count.
  std::unique_ptr<workload::ArrivalProcess> arrivals;
  if (options.open_loop.enabled) {
    arrivals = std::make_unique<workload::ArrivalProcess>(
        options.open_loop.arrival, options.open_loop.rate_per_sec,
        options.open_loop.seed);
  }
  const std::size_t endpoint_count = prefilters.size();
  const std::size_t object_count = trace.initial_object_bytes.size();
  const EventTime warmup_end = trace.info.warmup_end_event;
  DecodedStream stream;
  stream.routed_queries.assign(endpoint_count, 0);
  stream.retained_samples.assign(endpoint_count, 0);
  stream.touch_rows.resize(endpoint_count);
  for (std::size_t e = 0; e < endpoint_count; ++e) {
    if (prefilters[e]) stream.touch_rows[e].assign(object_count, 0);
  }
  // Per partition, the stream positions of its last kPrefetchLead routed
  // queries: a ring indexed by the partition's routed count so far.
  std::vector<std::uint32_t> recent(endpoint_count * kPrefetchLead);
  // Stream positions and trace indices ride in 32 bits.
  DELTA_CHECK(trace.order.size() < kNoQuery &&
              trace.queries.size() < kNoQuery &&
              trace.updates.size() < kNoQuery);
  stream.events.reserve(trace.order.size());
  for (const workload::Event& event : trace.order) {
    DecodedEvent d;
    d.is_update = event.kind == workload::Event::Kind::kUpdate;
    const auto i = static_cast<std::size_t>(event.index);
    DELTA_CHECK(event.index >= 0 &&
                i < (d.is_update ? trace.updates.size()
                                 : trace.queries.size()));
    d.index = static_cast<std::uint32_t>(i);
    if (d.is_update) {
      const workload::Update& u = trace.updates[i];
      d.now = u.time;
      // Object ids index the shards' prefilter gates; a hand-built trace
      // need not have been validated.
      DELTA_CHECK_MSG(u.object.value() >= 0 &&
                          static_cast<std::size_t>(u.object.value()) <
                              object_count,
                      "update " << i << " names object " << u.object.value()
                                << " of " << object_count);
      d.object = static_cast<std::uint32_t>(u.object.value());
    } else {
      const workload::Query& q = trace.queries[i];
      d.now = q.time;
      // A worker silently skips queries routed out of range, so the whole
      // split is validated here.
      const std::uint32_t e = routing[i];
      DELTA_CHECK(e < endpoint_count);
      d.endpoint = e;
      // Link the partition's query kPrefetchLead routed queries back to
      // this one.
      std::uint32_t& oldest =
          recent[e * kPrefetchLead + stream.routed_queries[e] % kPrefetchLead];
      if (stream.routed_queries[e] >= kPrefetchLead) {
        stream.events[oldest].prefetch = d.index;
      }
      oldest = static_cast<std::uint32_t>(stream.events.size());
      ++stream.routed_queries[e];
      if (d.now >= warmup_end &&
          (sketch_stride <= 1 ||
           static_cast<std::int64_t>(i) % sketch_stride == 0)) {
        ++stream.retained_samples[e];
      }
      std::vector<std::uint8_t>& row = stream.touch_rows[e];
      if (!row.empty()) {
        // Marked here, while the query record is in cache, so no partition
        // walks the routing table or the query records for its touch set.
        for (const ObjectId o : q.objects) {
          DELTA_CHECK_MSG(o.value() >= 0 &&
                              static_cast<std::size_t>(o.value()) <
                                  object_count,
                          "query " << i << " names object " << o.value()
                                   << " of " << object_count);
          row[static_cast<std::size_t>(o.value())] = 1;
        }
      }
    }
    d.arrival = arrivals != nullptr
                    ? arrivals->next()
                    : static_cast<double>(d.now) * options.seconds_per_event;
    stream.events.push_back(d);
  }
  return stream;
}

/// One cache partition of the conservative parallel DES: a full replica of
/// the node graph (event queue, latency-aware transport, repository
/// replica, cache endpoint, policy) plus everything the deterministic
/// merge needs. All mutable state is confined to one worker thread between
/// the launch and join barriers; every message this partition receives is
/// generated by its own replica, so the conservative lookahead bound
/// imposes no cross-partition waits (see event_engine.h).
struct EventShard {
  /// The cache endpoint's view (MultiRunResult::per_endpoint).
  RunResult result;
  /// Overhead delivered to the repository replica: the cache's requests
  /// and eviction notices, which only the combined view counts.
  Bytes server_overhead;
  util::EventQueue events;
  net::DelayedTransport transport;
  std::unique_ptr<core::ServerNode> server;
  std::unique_ptr<core::CacheNode> cache;
  std::unique_ptr<core::CachePolicy> policy;
  const workload::Trace* trace = nullptr;
  EventTime warmup_end = 0;

  /// Update ingests the prefilter skipped in this replica.
  std::int64_t prefiltered_updates = 0;
  EndpointEventYardsticks yardsticks;
  /// Per-partition response sketch and dispatch-lag accumulator, folded
  /// in endpoint order at merge time like every other per-shard statistic.
  util::QuantileSketch response_sketch;
  util::SummaryStats lag_stats;
  net::UplinkStats server_uplink;
  double end_clock = 0.0;
  std::int64_t delivered = 0;
  /// Open loop: queries dispatched whose completion has not fired yet.
  std::size_t in_flight_queries = 0;
  /// Open loop: what a query's completion needs, kept in a slot table that
  /// never holds more than max_in_flight entries; free slots chain through
  /// next_free. The policy's QueryDone is {&on_query_done, shard, slot}.
  struct InFlightQuery {
    double arrival = 0.0;
    double lag = 0.0;
    EventTime now = 0;
    std::int64_t tag = 0;
    std::uint32_t next_free = kNoQuery;
  };
  std::vector<InFlightQuery> in_flight;
  std::uint32_t free_in_flight = kNoQuery;
  double local_exec = 0.0;
  double server_exec = 0.0;

  /// Parks an open-loop query's completion state; returns its slot.
  std::uint32_t park_query(const InFlightQuery& query) {
    if (free_in_flight == kNoQuery) {
      free_in_flight = static_cast<std::uint32_t>(in_flight.size());
      in_flight.emplace_back();
    }
    const std::uint32_t slot = free_in_flight;
    free_in_flight = in_flight[slot].next_free;
    in_flight[slot] = query;
    ++in_flight_queries;
    return slot;
  }

  static void on_query_done(void* ctx, std::uint64_t slot,
                            const core::QueryOutcome& outcome) {
    auto& shard = *static_cast<EventShard*>(ctx);
    InFlightQuery& query = shard.in_flight[static_cast<std::size_t>(slot)];
    RunResult& r = shard.result;
    --shard.in_flight_queries;
    count_outcome(r, outcome);
    const double exec_seconds =
        outcome.path == core::QueryOutcome::Path::kShipped ? shard.server_exec
                                                           : shard.local_exec;
    // Response spans arrival -> last reply (the clock sits at the
    // completing delivery), plus the execution surcharge.
    const double response = (shard.events.now() - query.arrival) + exec_seconds;
    if (query.now >= shard.warmup_end) {
      r.postwarmup_latency.add(response);
      shard.response_sketch.add_tagged(response, query.tag);
      shard.lag_stats.add(query.lag);
    }
    query.next_free = shard.free_in_flight;
    shard.free_in_flight = static_cast<std::uint32_t>(slot);
  }

  /// Crash-stop schedule resolved against this replica's endpoints (ISSUE
  /// 10): one wipe event per window start, one recover event per heal,
  /// armed on the event queue after the factory preloads flush. The plan is
  /// static data and the handlers are pure functions of it, so crashed runs
  /// stay bit-identical for any thread count.
  struct CrashEvent {
    double at = 0.0;
    double downtime = 0.0;  // heal - down, accrued when the wipe fires
    bool server = false;
    bool wipe = false;
  };
  std::vector<CrashEvent> crash_plan;
  /// Set by a cache wipe event; the replay loop runs the policy's
  /// on_crash_restart at its top — the one point where no policy dispatch
  /// frame can be live. A crash event may fire inside a synchronous frame's
  /// event pump, and wiping the policy mid-frame would yank live scratch
  /// (eviction batch decisions, load-candidate lists) out from under it.
  /// Until the deferred wipe runs, the surviving frame finishes against the
  /// pre-crash policy state — a deterministic artifact of modeling the
  /// dead process's final instants.
  bool policy_wipe_pending = false;

  static void on_crash_event(void* ctx, std::uint64_t arg) {
    auto& shard = *static_cast<EventShard*>(ctx);
    const CrashEvent& ce = shard.crash_plan[static_cast<std::size_t>(arg)];
    if (ce.server) {
      if (ce.wipe) shard.server->crash_restart(ce.downtime);
      // Heal needs no server-side action: a restarted server just answers
      // again. Caches detect the new incarnation from its reply stamps and
      // rebuild their registrations themselves (kRecoverRequest).
      return;
    }
    if (ce.wipe) {
      shard.cache->crash_restart(ce.downtime);
      shard.policy_wipe_pending = true;
    } else {
      shard.cache->begin_recovery();
    }
  }

  EventShard(const workload::Trace& trace, const net::LinkModel& link,
             std::size_t index)
      : transport(&events, link) {
    this->trace = &trace;
    server = std::make_unique<core::ServerNode>(&trace, &transport);
    cache = std::make_unique<core::CacheNode>(
        &trace, server.get(), "cache-" + std::to_string(index));
    warmup_end = trace.info.warmup_end_event;
    // Unfiltered: coalesced notice ids ride on kInvalidation merges AND
    // piggyback on data-bearing replies, so every delivered message may
    // carry staleness samples.
    transport.set_delivery_observer(&EventShard::on_delivery, this);
  }

  /// Staleness observer: every invalidation notice delivered to the cache
  /// endpoint is sampled individually — the subject of a kInvalidation plus
  /// each coalesced/piggybacked id in its batch span (a notice's
  /// staleness does not disappear because it shared a frame). Cache->server
  /// eviction notices reuse the kind, so filter by destination; resync
  /// replays are recovery (accounted by max_recovery_staleness), not
  /// deliveries. Post-warm-up only, like every other measured yardstick:
  /// the subject gates on sent_at (the update's trace time), batched ids on
  /// their own trace times — the same boundary the response samples use.
  /// The gap is measured from the server-side ingest stamp when the
  /// protocol layer provides one, else from sim_sent_at (identical for an
  /// unbatched notice, whose send IS its ingest).
  static void on_delivery(void* ctx, const net::Message& m, net::End to) {
    auto& shard = *static_cast<EventShard*>(ctx);
    if (to != net::End::kCache) return;
    if (m.kind == net::MessageKind::kResyncData) return;
    if (m.kind == net::MessageKind::kInvalidation &&
        m.sent_at >= shard.warmup_end) {
      const double ingest =
          m.subject_ingest_at >= 0.0 ? m.subject_ingest_at : m.sim_sent_at;
      shard.yardsticks.staleness_seconds.add(m.sim_delivered_at - ingest);
    }
    const std::vector<net::LedgerEntry>& notices =
        shard.transport.ledger(net::End::kServer);
    for (std::uint32_t i = m.batch_from; i < m.batch_to; ++i) {
      const net::LedgerEntry& notice = notices[i];
      const auto id = static_cast<std::size_t>(notice.id);
      if (shard.trace->updates[id].time < shard.warmup_end) continue;
      const double ingest =
          notice.ingest_at >= 0.0 ? notice.ingest_at : m.sim_sent_at;
      shard.yardsticks.staleness_seconds.add(m.sim_delivered_at - ingest);
    }
  }
};

/// Prefetches every cache line of one query record (120 bytes, 8-aligned,
/// so it may straddle three lines).
void prefetch_query(const workload::Query& q) {
  const auto* bytes = reinterpret_cast<const char*>(&q);
  for (std::size_t offset = 0; offset < sizeof(q); offset += 64) {
    __builtin_prefetch(bytes + offset);
  }
  __builtin_prefetch(bytes + sizeof(q) - 1);
}

// Over zero-latency links sim_golden_test pins this loop to the golden
// tables; event_engine_test pins bit-identity across thread counts on the
// WAN configs.
void replay_event_shard(const workload::Trace& trace,
                        const DecodedStream& stream, std::size_t self,
                        const EventEngineOptions& options,
                        EventShard& shard) {
  const auto start = std::chrono::steady_clock::now();
  // ---- update prefilter (see EventEngineOptions::prefilter_updates) ----
  // Touch set = objects registered at this replica when the factories
  // finished ∪ objects named by queries routed here (the decode pass's
  // touch row). Inductively, every object the replica can ever register,
  // read (object_bytes / load_cost) or be notified about lies in it:
  // registrations happen only through loads, loads only for objects of
  // routed queries (or factory preloads, captured in the post-factory
  // registration row), reply payloads are fixed trace fields (q.cost /
  // u.cost), and the invalidation fan-out gates on subscription/
  // registration. An update whose object is outside the touch set is
  // therefore an invisible repository-size bump here — skipping its ingest
  // is exact. The decode pass builds a row only for partitions that
  // prefilter (see run_policy_event). The registration row is read before
  // the preload flush below, while it still is the post-factory row.
  const std::vector<std::uint8_t>& routed_objects = stream.touch_rows[self];
  std::vector<std::uint8_t> touch;
  if (!routed_objects.empty()) {
    touch = shard.server->registered_row();
    DELTA_DCHECK(touch.size() == routed_objects.size());
    for (std::size_t obj = 0; obj < touch.size(); ++obj) {
      touch[obj] |= routed_objects[obj];
    }
  }
  const std::uint8_t* const gate = touch.empty() ? nullptr : touch.data();

  util::EventQueue& events = shard.events;
  // Flush preload stragglers (eviction notices emitted while the policy
  // factory ran on the calling thread).
  events.run_until_idle();
  // Arm the crash schedule after the preload flush, so factory-time traffic
  // can never race a wipe. Same-instant events run in schedule order and
  // the plan vector is ordered wipe-before-heal per window. The clamp
  // covers preloads that advanced the clock past an early window edge
  // (identical on every shard, so determinism is preserved).
  for (std::size_t k = 0; k < shard.crash_plan.size(); ++k) {
    events.schedule(std::max(shard.crash_plan[k].at, events.now()),
                    &EventShard::on_crash_event, &shard,
                    static_cast<std::uint64_t>(k));
  }

  RunResult& r = shard.result;
  r.policy_name = shard.policy->name();
  TrafficLedger ledger(shard.cache->meter(), trace.info.warmup_end_event,
                       options.series_stride, r);

  core::CachePolicy& policy = *shard.policy;
  // Pre-size the sketch from the exact per-shard count (see DecodedStream):
  // the hot loop never reallocates it, and nothing is reserved that cannot
  // be filled.
  shard.response_sketch.reserve(stream.retained_samples[self]);
  // Hoisted loop invariants (the compiler cannot prove the opaque policy
  // call leaves them alone).
  const EventTime warmup_end = trace.info.warmup_end_event;
  const double local_exec = options.exec.local_exec_seconds;
  const double server_exec = options.exec.server_exec_seconds;
  shard.local_exec = local_exec;
  shard.server_exec = server_exec;
  const bool open_loop = options.open_loop.enabled;
  const std::size_t window = options.open_loop.max_in_flight;
  // The object list of the query whose record the previous dispatch
  // prefetched: read once that record has had a dispatch's time to land.
  std::uint32_t record_in_flight = kNoQuery;
  for (const DecodedEvent& event : stream.events) {
    if (shard.policy_wipe_pending) {
      // Deferred crash wipe (see the EventShard field note): no dispatch
      // frame is live here, so the policy's soft state can be dropped
      // without invalidating anything on the stack.
      shard.policy_wipe_pending = false;
      policy.on_crash_restart();
    }
    const EventTime now = event.now;
    const double arrival = event.arrival;
    // Deliver everything due up to this arrival, then move the clock to it
    // (messages still in flight are delivered — and metered — later, so
    // the boundary snapshot below only sees traffic that has landed).
    events.advance_until(arrival);
    ledger.before_event(now);

    if (event.is_update) {
      // Prefilter gate: a skipped update cannot touch this replica (see the
      // touch set above); it still advanced the clock above and still
      // feeds the series observation below — every shard must observe
      // every event for the pointwise-sum merge to hold.
      if (gate == nullptr || gate[event.object] != 0) {
        shard.server->ingest_update_at(event.index);
      } else {
        ++shard.prefiltered_updates;
      }
      // Invalidation notices due immediately (zero-latency links) are
      // delivered by the next event's advance_until — before any policy
      // dispatch and before the warm-up snapshot can observe their
      // (overhead-only, figure-invisible) bytes, exactly as if they had
      // been pumped here.
    } else if (event.endpoint == self) {
      // A one-object list sits inside that record, so this fetches a line
      // already in flight; a longer list's heap block is a separate line.
      if (record_in_flight != kNoQuery) {
        __builtin_prefetch(trace.queries[record_in_flight].objects.data());
      }
      if (event.prefetch != kNoQuery) {
        prefetch_query(trace.queries[event.prefetch]);
      }
      record_in_flight = event.prefetch;
      const auto qi = static_cast<std::size_t>(event.index);
      const workload::Query& q = trace.queries[qi];
      if (!open_loop) {
        // Closed loop per partition: the query dispatches once this
        // cache's clock reaches its arrival (or as soon as it finished its
        // previous query) and runs to completion; its synchronous cache
        // calls pump the event queue, advancing the clock over every
        // transfer they wait for.
        const double dispatched = events.now();
        const core::QueryOutcome outcome = policy.on_query(q);
        const double completed = events.now();
        ++r.queries;
        count_outcome(r, outcome);
        const double exec_seconds =
            outcome.path == core::QueryOutcome::Path::kShipped ? server_exec
                                                               : local_exec;
        const double lag = dispatched - arrival;
        const double response = lag + (completed - dispatched) + exec_seconds;
        if (now >= warmup_end) {
          r.postwarmup_latency.add(response);
          shard.response_sketch.add(response);
          shard.lag_stats.add(lag);
        }
      } else {
        // Open loop: dispatch through the async policy entry point and let
        // the query complete when its last reply lands, so up to `window`
        // queries overlap. An arrival that finds the window full runs the
        // event queue until a completion frees a slot — safe, because a
        // full window implies in-flight messages whose deliveries are
        // pending events (completions only fire inside deliveries).
        while (shard.in_flight_queries >= window) {
          const bool ran = events.run_one();
          DELTA_CHECK_MSG(ran,
                          "open-loop window full with an idle event queue");
        }
        ++r.queries;
        const std::uint32_t slot = shard.park_query(
            {arrival, events.now() - arrival, now,
             static_cast<std::int64_t>(qi)});
        policy.on_query_async(q, {&EventShard::on_query_done, &shard, slot});
      }
    }
    ledger.after_event(now);
  }
  // End-of-run drain: held-back invalidation notices first (congestion
  // batching; no-op otherwise), then deliver (and meter) everything still
  // in flight — which fires every outstanding open-loop completion —
  // before the final reads.
  shard.server->flush_pending_notices();
  events.run_until_idle();
  if (shard.policy_wipe_pending) {
    // A crash window past the last trace event still wipes the policy.
    shard.policy_wipe_pending = false;
    policy.on_crash_restart();
  }
  DELTA_CHECK(shard.in_flight_queries == 0);
  shard.server_overhead = ledger.finish(shard.server->meter());
  // Each replica has exactly one cache, so the server's ledger is its own.
  shard.yardsticks.protocol = shard.cache->counters();
  shard.yardsticks.notices_logged = shard.server->counters().notices_logged;
  shard.server_uplink = shard.transport.uplink_stats(net::End::kServer);
  shard.end_clock = events.now();
  shard.delivered = shard.transport.delivered_count();
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
}

/// The combined view of the partitions, folded in endpoint order: the
/// per-endpoint counters and traffic summed, each partition's repository
/// overhead added, the latency statistics merged and the series summed
/// pointwise. Every partition observed every event, so all series carry
/// points at the same event indices, and their values are integer byte
/// counts (exact in a double), so the sums are exact and independent of
/// which thread replayed which partition.
RunResult combine_endpoints(
    const std::vector<std::unique_ptr<EventShard>>& shards,
    std::int64_t series_stride) {
  RunResult c;
  const RunResult& first = shards.front()->result;
  c.policy_name = first.policy_name;
  c.warmup_end = first.warmup_end;
  for (const auto& shard : shards) {
    const RunResult& r = shard->result;
    c.queries += r.queries;
    c.cache_fresh += r.cache_fresh;
    c.cache_after_updates += r.cache_after_updates;
    c.shipped += r.shipped;
    c.objects_loaded += r.objects_loaded;
    c.total_traffic += r.total_traffic;
    c.postwarmup_traffic += r.postwarmup_traffic;
    for (std::size_t m = 0; m < 3; ++m) {
      c.postwarmup_by_mechanism[m] += r.postwarmup_by_mechanism[m];
    }
    c.overhead_traffic += r.overhead_traffic + shard->server_overhead;
    c.postwarmup_latency.merge(r.postwarmup_latency);
  }
  c.series = util::CumulativeSeries{series_stride};
  const auto& reference = first.series.points();
  for (std::size_t k = 0; k < reference.size(); ++k) {
    double sum = 0.0;
    for (const auto& shard : shards) {
      const auto& points = shard->result.series.points();
      DELTA_CHECK(points.size() == reference.size() &&
                  points[k].event_index == reference[k].event_index);
      sum += points[k].value;
    }
    c.series.observe(reference[k].event_index, sum);
  }
  c.series.finalize();
  return c;
}

}  // namespace

EventRunResult run_policy_event(const workload::Trace& trace,
                                std::size_t endpoint_count,
                                workload::SplitStrategy strategy,
                                const CachePolicyFactory& factory,
                                const EventEngineOptions& options,
                                const std::vector<std::uint32_t>* assignment) {
  const auto start = std::chrono::steady_clock::now();
  DELTA_CHECK(endpoint_count > 0);
  DELTA_CHECK(factory != nullptr);
  DELTA_CHECK(options.seconds_per_event >= 0.0);
  DELTA_CHECK(assignment == nullptr ||
              assignment->size() == trace.queries.size());
  const std::vector<std::uint32_t> computed_assignment =
      assignment == nullptr
          ? workload::assign_queries(trace, endpoint_count, strategy)
          : std::vector<std::uint32_t>{};
  const std::vector<std::uint32_t>& routing =
      assignment == nullptr ? computed_assignment : *assignment;
  // The bounded sketch's global decimation stride, derived from the whole
  // trace so every shard keeps exactly the samples a single stream would
  // have kept (same clamp as QuantileSketch::set_stride).
  const std::int64_t sketch_stride =
      options.open_loop.enabled && options.open_loop.response_sample_cap > 0
          ? std::max<std::int64_t>(
                1, static_cast<std::int64_t>(
                       trace.queries.size() /
                       options.open_loop.response_sample_cap))
          : 1;
  const std::size_t threads = options.parallel.num_threads == 0
                                  ? util::ThreadPool::hardware_threads()
                                  : options.parallel.num_threads;

  // Crash-stop plans (ISSUE 10) arm the suspicion probe automatically: a
  // cache whose server died mid-run only learns of the restart from an
  // incarnation stamp on a server reply, and the probe resync is what puts
  // a stampable round trip on the wire even when the cache has no data
  // traffic pending across the outage.
  bool any_crash_windows = false;
  if (options.fault_plan.enabled) {
    for (const net::CrashSchedule& crash : options.fault_plan.crashes) {
      any_crash_windows = any_crash_windows || !crash.windows.empty();
    }
  }

  // ---- assemble one replica node graph per partition (calling thread) ----
  std::vector<std::unique_ptr<EventShard>> shards;
  shards.reserve(endpoint_count);
  for (std::size_t i = 0; i < endpoint_count; ++i) {
    const net::LinkModel link = i < options.cache_links.size()
                                    ? options.cache_links[i]
                                    : options.default_link;
    shards.push_back(std::make_unique<EventShard>(trace, link, i));
    shards.back()->server->set_notice_batching(options.notice_batching);
    shards.back()->transport.set_fault_plan(options.fault_plan);
    // A plan that can actually lose or duplicate messages requires the
    // hardened protocol: dropping a reply from an unhardened node would
    // strand its pending request forever. (faults_active is plan-derived,
    // identical on every shard — checking the first suffices, but the
    // check is cheap and per-shard keeps it obviously right.)
    DELTA_CHECK_MSG(!shards.back()->transport.faults_active() ||
                        options.protocol.enabled,
                    "fault plan can drop/duplicate messages but the "
                    "protocol layer is off — enable options.protocol");
    shards.back()->server->set_protocol(options.protocol);
    shards.back()->server->set_admission(options.admission);
    shards.back()->cache->set_protocol(options.protocol,
                                       /*probe_on_suspect=*/any_crash_windows);
    if (any_crash_windows) {
      // Each live crash window the wire resolved for an end becomes a wipe
      // event at its start and a recover event at its heal.
      EventShard& shard = *shards.back();
      for (const net::End end : {net::End::kServer, net::End::kCache}) {
        const std::vector<net::FaultWindow>* windows =
            shard.transport.crash_windows(end);
        if (windows == nullptr) continue;
        const bool is_server = end == net::End::kServer;
        for (const net::FaultWindow& w : *windows) {
          DELTA_CHECK_MSG(
              std::isfinite(w.down_seconds) && std::isfinite(w.heal_seconds) &&
                  w.down_seconds >= 0.0,
              "crash window for '" << (is_server ? shard.server->name()
                                                 : shard.cache->name())
                                   << "' must be finite and non-negative");
          if (w.heal_seconds <= w.down_seconds) continue;  // empty window
          shard.crash_plan.push_back(EventShard::CrashEvent{
              w.down_seconds, w.heal_seconds - w.down_seconds, is_server,
              /*wipe=*/true});
          shard.crash_plan.push_back(EventShard::CrashEvent{
              w.heal_seconds, 0.0, is_server, /*wipe=*/false});
        }
      }
    }
    if (sketch_stride > 1) {
      // Global decimation stride (computed above): every shard keeps
      // exactly the samples a single stream would have, so the merged
      // bounded percentiles match the single-stream ones.
      shards.back()->response_sketch.set_stride(sketch_stride);
    }
  }
  if (options.open_loop.enabled) {
    DELTA_CHECK(options.open_loop.max_in_flight > 0);
  }
  // Factories run on the calling thread in endpoint order (the
  // CachePolicyFactory contract), so they need no thread-safety. Offline
  // policies (SOptimal) emit their up-front load traffic here — their sync
  // façades pump the replica's event queue, so the loads complete (and are
  // metered) inside the warm-up window even over slow links.
  for (std::size_t i = 0; i < endpoint_count; ++i) {
    shards[i]->policy = factory(*shards[i]->cache, i);
    DELTA_CHECK(shards[i]->policy != nullptr);
    shards[i]->policy->set_admission(options.admission);
    if (options.open_loop.enabled) {
      // The arrival drive must never block behind one notice's refresh
      // round trip (under a partition that round trip is a whole retry
      // ladder); policies with a blocking invalidation handler switch to
      // their fire-and-forget ship path.
      shards[i]->policy->set_nonblocking_invalidations(true);
    }
  }

  // Which partitions prefilter updates. kAll subscribers (Replica/Benefit)
  // hear every update and stand down. So do crash-windowed replicas: a
  // crash recovery rebuilds rows and replays ledgers on its own schedule,
  // and filtering against that is not worth the proof.
  std::vector<bool> prefilters(endpoint_count);
  for (std::size_t i = 0; i < endpoint_count; ++i) {
    prefilters[i] = options.prefilter_updates &&
                    shards[i]->server->subscription() !=
                        core::MetadataSubscription::kAll &&
                    shards[i]->crash_plan.empty();
  }
  // One pass over the trace: the shared replay stream, the validated split,
  // every per-partition count and the prefiltering partitions' touch rows.
  const DecodedStream stream =
      decode_stream(trace, routing, prefilters, sketch_stride, options);

  // ---- replay all partitions (wait-free; see lookahead argument in
  // event_engine.h). Partitions are LPT-packed onto the workers by exact
  // routed-query counts and a worker that drains its own queue steals a
  // straggler's pending partition — neither changes replay order within a
  // partition, so results stay bit-identical. ----
  const std::vector<double> weights(stream.routed_queries.begin(),
                                    stream.routed_queries.end());
  const auto replay_start = std::chrono::steady_clock::now();
  const std::int64_t steal_count = util::parallel_for_dynamic(
      endpoint_count,
      util::lpt_assignment(weights, std::min(threads, endpoint_count)),
      [&](std::size_t i) {
        replay_event_shard(trace, stream, i, options, *shards[i]);
      });
  const auto replay_end = std::chrono::steady_clock::now();

  // ---- deterministic merge, in endpoint order ----
  EventRunResult out;
  out.steal_count = steal_count;
  if (!routing.empty()) {
    const std::size_t max_routed = *std::max_element(
        stream.routed_queries.begin(), stream.routed_queries.end());
    out.shard_balance = static_cast<double>(max_routed) *
                        static_cast<double>(endpoint_count) /
                        static_cast<double>(routing.size());
  }
  MultiRunResult& replay = out.replay;
  replay.strategy = strategy;
  replay.per_endpoint.reserve(endpoint_count);
  out.per_endpoint.reserve(endpoint_count);
  replay.combined = combine_endpoints(shards, options.series_stride);

  for (const auto& shard : shards) {
    out.server_uplink.merge(shard->server_uplink);
    out.sim_duration_seconds =
        std::max(out.sim_duration_seconds, shard->end_clock);
    out.delivered_messages += shard->delivered;
    out.coalesced_notices += shard->server->coalesced_notices();
    out.notice_messages += shard->server->notice_messages();
    out.prefiltered_updates += shard->prefiltered_updates;

    // ---- failure/recovery accounting (shard order, so the sums are
    // thread-count independent). Every replica fires the identical server
    // crash schedule, so its server's crash pair is a copy: it is left out
    // here and shard 0's is added once below. ----
    ChaosYardsticks server = shard->server->counters();
    server.crash_restarts = 0;
    server.crash_downtime_seconds = 0.0;
    out.chaos.merge(shard->cache->counters())
        .merge(server)
        .merge(shard->transport.counters());
  }
  const ChaosYardsticks& server0 = shards.front()->server->counters();
  out.chaos.crash_restarts += server0.crash_restarts;
  out.chaos.crash_downtime_seconds += server0.crash_downtime_seconds;

  // Sample statistics fold in endpoint order, which only the split fixes.
  // A merge into an empty accumulator is a bitwise copy, so one partition's
  // statistics are the combined ones.
  out.response_sketch.reserve(std::accumulate(
      stream.retained_samples.begin(), stream.retained_samples.end(),
      std::size_t{0}));
  for (auto& shard : shards) {
    out.dispatch_lag_seconds.merge(shard->lag_stats);
    out.staleness_seconds.merge(shard->yardsticks.staleness_seconds);
    out.response_sketch.merge(shard->response_sketch);
    replay.per_endpoint.push_back(std::move(shard->result));
    out.per_endpoint.push_back(std::move(shard->yardsticks));
  }
  // Free the replicas inside the wall: their teardown is part of what the
  // caller waits for.
  shards.clear();

  const auto end = std::chrono::steady_clock::now();
  const auto seconds = [](auto d) {
    return std::chrono::duration<double>(d).count();
  };
  out.prepare_seconds = seconds(replay_start - start);
  out.merge_seconds = seconds(end - replay_end);
  replay.combined.wall_seconds = seconds(end - start);
  return out;
}

}  // namespace delta::sim
