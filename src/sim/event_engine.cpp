#include "sim/event_engine.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <memory>
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

/// A per-query yardstick sample, tagged with its position in the merged
/// trace order so the combined streams can be re-added in the canonical
/// (global event) order regardless of which worker produced them.
struct QuerySample {
  std::int64_t order_pos = 0;
  double response = 0.0;
  double lag = 0.0;
};

/// One staleness observation: invalidation delivery time (the partition
/// clock instant the notice landed) and the ingest->delivery gap. Each
/// partition's tape is naturally sorted by delivery time.
struct StalenessSample {
  double delivered_at = 0.0;
  double gap = 0.0;
};

/// One event of the shared decoded replay stream: the merged-order record
/// every partition walks. Decoded once on the calling thread — trace-order
/// indirection, timestamp lookup, and the arrival-instant conversion are
/// paid once instead of once per partition, and updates enter the replicas
/// through the trusted by-index ingest (the identity of a trace entry with
/// itself needs no per-replica validation).
struct DecodedEvent {
  double arrival = 0.0;   // now * seconds_per_event, partition-clock units
  EventTime now = 0;
  std::int64_t index = 0;  // into trace.queries or trace.updates
  bool is_update = false;
  std::uint32_t object = 0;  // an update's object (the prefilter's key)
};
static_assert(sizeof(DecodedEvent) == 32, "object rides in the padding");

/// The decoded stream plus every count the shards are sized from, all read
/// off the same single pass over the trace.
struct DecodedStream {
  std::vector<DecodedEvent> events;
  /// Per partition: routed queries (the LPT weight), the post-warm-up
  /// subset (every tape/stats sample), and the subset the sketch's
  /// decimation stride retains. Reserving the sketch from routed queries
  /// instead of retained samples would over-reserve stride-fold per shard —
  /// N*stride-fold across a capped open-loop run.
  std::vector<std::size_t> routed_queries;
  std::vector<std::size_t> postwarmup_routed;
  std::vector<std::size_t> retained_samples;
  /// Post-warm-up updates per object, and in total: they size the
  /// staleness tapes of filtered and unfiltered shards exactly.
  std::vector<std::size_t> postwarmup_updates_of;
  std::size_t postwarmup_updates = 0;
};

DecodedStream decode_stream(const workload::Trace& trace,
                            const std::vector<std::uint32_t>& routing,
                            std::size_t endpoint_count,
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
        options.open_loop.seed, options.open_loop.diurnal_period_seconds);
  }
  const EventTime warmup_end = trace.info.warmup_end_event;
  DecodedStream stream;
  stream.routed_queries.assign(endpoint_count, 0);
  stream.postwarmup_routed.assign(endpoint_count, 0);
  stream.retained_samples.assign(endpoint_count, 0);
  stream.postwarmup_updates_of.assign(trace.initial_object_bytes.size(), 0);
  stream.events.reserve(trace.order.size());
  for (const workload::Event& event : trace.order) {
    DecodedEvent d;
    d.is_update = event.kind == workload::Event::Kind::kUpdate;
    d.index = event.index;
    const auto i = static_cast<std::size_t>(event.index);
    if (d.is_update) {
      const workload::Update& u = trace.updates[i];
      d.now = u.time;
      d.object = static_cast<std::uint32_t>(u.object.value());
      if (d.now >= warmup_end) {
        ++stream.postwarmup_updates_of[d.object];
        ++stream.postwarmup_updates;
      }
    } else {
      d.now = trace.queries[i].time;
      // A worker silently skips queries routed out of range, so the whole
      // split is validated here.
      const std::uint32_t e = routing[i];
      DELTA_CHECK(e < endpoint_count);
      ++stream.routed_queries[e];
      if (d.now >= warmup_end) {
        ++stream.postwarmup_routed[e];
        if (sketch_stride <= 1 ||
            static_cast<std::int64_t>(i) % sketch_stride == 0) {
          ++stream.retained_samples[e];
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
struct EventShard : ReplicaReplay {
  util::EventQueue events;
  net::DelayedTransport transport;
  std::unique_ptr<core::ServerNode> server;
  std::unique_ptr<core::CacheNode> cache;
  std::unique_ptr<core::CachePolicy> policy;
  const workload::Trace* trace = nullptr;
  std::size_t cache_transport_slot = 0;
  EventTime warmup_end = 0;
  /// Per-query and staleness tapes for the canonical-order merge; off for
  /// a single partition, whose streams already are the combined ones.
  bool record_tapes = true;

  /// Update ingests the prefilter skipped in this replica.
  std::int64_t prefiltered_updates = 0;
  EndpointEventYardsticks yardsticks;
  /// Per-partition response sketch, folded in endpoint order at merge time
  /// (quantiles are order-invariant, so this matches the single-stream
  /// percentiles bit-for-bit).
  util::QuantileSketch response_sketch;
  /// Dispatch-lag accumulator for a single partition; with tapes the merge
  /// re-adds lags from the tape instead.
  util::SummaryStats lag_stats;
  std::vector<QuerySample> query_tape;
  std::vector<StalenessSample> staleness_tape;
  net::UplinkStats server_uplink;
  double end_clock = 0.0;
  std::int64_t delivered = 0;
  /// Open loop: queries dispatched whose completion has not fired yet.
  std::size_t in_flight_queries = 0;

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
  /// Cache-window downtime accrued by this replica (summed over shards at
  /// merge) and server-window downtime (every replica fires the identical
  /// server schedule, so the merge adds shard 0's copy exactly once).
  double crash_downtime = 0.0;
  double server_crash_downtime = 0.0;
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
      if (ce.wipe) {
        shard.server->crash_restart();
        shard.server_crash_downtime += ce.downtime;
      }
      // Heal needs no server-side action: a restarted server just answers
      // again. Caches detect the new incarnation from its reply stamps and
      // rebuild their registrations themselves (kRecoverRequest).
      return;
    }
    if (ce.wipe) {
      shard.cache->crash_restart();
      shard.crash_downtime += ce.downtime;
      shard.policy_wipe_pending = true;
    } else {
      shard.cache->begin_recovery();
    }
  }

  EventShard(const workload::Trace& trace, const net::LinkModel& default_link,
             const net::LinkModel& cache_link, std::size_t index)
      // No aggregate metering: the shard owns both endpoints, so every
      // aggregate figure is derived at the snapshot points as the sum of
      // the two per-endpoint meters (they partition the aggregate) —
      // saving two meter records on every delivered message.
      : transport(&events, default_link, /*aggregate_metering=*/false) {
    this->trace = &trace;
    server = std::make_unique<core::ServerNode>(&trace, &transport);
    cache = std::make_unique<core::CacheNode>(
        &trace, server.get(), &transport, "cache-" + std::to_string(index));
    transport.set_duplex_link(server->name(), cache->name(), cache_link);
    cache_transport_slot = transport.endpoint_slot(cache->name());
    warmup_end = trace.info.warmup_end_event;
    // Unfiltered: coalesced notice ids ride on kInvalidation merges AND
    // piggyback on data-bearing replies, so every delivered message may
    // carry staleness samples.
    transport.set_delivery_observer(&EventShard::on_delivery, this);
  }

  void observe_staleness(double delivered_at, double gap) {
    yardsticks.staleness_seconds.add(gap);
    if (record_tapes) {
      staleness_tape.push_back(StalenessSample{delivered_at, gap});
    }
  }

  /// Staleness observer: every invalidation notice delivered to the cache
  /// endpoint is sampled individually — the subject of a kInvalidation plus
  /// each coalesced/piggybacked id in batched_invalidations (a notice's
  /// staleness does not disappear because it shared a frame). Cache->server
  /// eviction notices reuse the kind, so filter by destination; resync
  /// replays are recovery (accounted by max_recovery_staleness), not
  /// deliveries. Post-warm-up only, like every other measured yardstick:
  /// the subject gates on sent_at (the update's trace time), batched ids on
  /// their own trace times — the same boundary the response samples use.
  /// The gap is measured from the server-side ingest stamp when the
  /// protocol layer provides one, else from sim_sent_at (identical for an
  /// unbatched notice, whose send IS its ingest).
  static void on_delivery(void* ctx, const net::Message& m, std::size_t slot) {
    auto& shard = *static_cast<EventShard*>(ctx);
    if (slot != shard.cache_transport_slot) return;
    if (m.kind == net::MessageKind::kResyncData) return;
    if (m.kind == net::MessageKind::kInvalidation &&
        m.sent_at >= shard.warmup_end) {
      const double ingest =
          m.subject_ingest_at >= 0.0 ? m.subject_ingest_at : m.sim_sent_at;
      shard.observe_staleness(m.sim_delivered_at, m.sim_delivered_at - ingest);
    }
    for (std::size_t i = 0; i < m.batched_invalidations.size(); ++i) {
      const auto id = static_cast<std::size_t>(m.batched_invalidations[i]);
      if (shard.trace->updates[id].time < shard.warmup_end) continue;
      const double ingest = i < m.batched_ingest_at.size()
                                ? m.batched_ingest_at[i]
                                : m.sim_sent_at;
      shard.observe_staleness(m.sim_delivered_at, m.sim_delivered_at - ingest);
    }
  }
};

// Over zero-latency links SimGoldenTest.EventEngine... pins this loop to
// the synchronous engine's golden tables; event_engine_test pins
// bit-identity across thread counts on the WAN configs.
void replay_event_shard(const workload::Trace& trace,
                        const DecodedStream& stream,
                        const std::vector<std::uint32_t>& routing,
                        std::size_t self, const EventEngineOptions& options,
                        EventShard& shard) {
  const auto start = std::chrono::steady_clock::now();
  // ---- update prefilter (see EventEngineOptions::prefilter_updates) ----
  // Touch set = objects registered at this replica when the factories
  // finished ∪ objects named by queries routed here. Inductively, every
  // object the replica can ever register, read (object_bytes / load_cost)
  // or be notified about lies in it: registrations happen only through
  // loads, loads only for objects of routed queries (or factory preloads,
  // captured in the post-factory registration row), reply payloads are
  // fixed trace fields (q.cost / u.cost), and the invalidation fan-out
  // gates on subscription/registration. An update whose object is outside
  // the touch set is therefore an invisible repository-size bump here —
  // skipping its ingest is exact. kAll subscribers (Replica/Benefit) hear
  // every update and stand down. So do crash-windowed replicas: a crash
  // recovery rebuilds rows and replays ledgers on its own schedule, and
  // filtering against that is not worth the proof. The row is read before
  // the preload flush below, while it still is the post-factory row.
  const core::MetadataSubscription subscription =
      shard.server->subscription(0);
  std::vector<std::uint8_t> touch;
  std::size_t staleness_reserve =
      subscription == core::MetadataSubscription::kNone
          ? 0
          : stream.postwarmup_updates;
  if (options.prefilter_updates &&
      subscription != core::MetadataSubscription::kAll &&
      shard.crash_plan.empty()) {
    touch = shard.server->registered_row(0);
    for (std::size_t qi = 0; qi < routing.size(); ++qi) {
      if (routing[qi] != self) continue;
      for (const ObjectId o : trace.queries[qi].objects) {
        touch[static_cast<std::size_t>(o.value())] = 1;
      }
    }
    if (subscription != core::MetadataSubscription::kNone) {
      // Exact: a staleness sample needs an ingested post-warm-up update.
      staleness_reserve = 0;
      for (std::size_t obj = 0; obj < touch.size(); ++obj) {
        if (touch[obj] != 0) {
          staleness_reserve += stream.postwarmup_updates_of[obj];
        }
      }
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
  r.warmup_end = trace.info.warmup_end_event;
  shard.aggregate_series = util::CumulativeSeries{options.series_stride};
  const net::TrafficMeter& endpoint_meter = shard.cache->meter();
  const net::TrafficMeter& server_meter = shard.transport.endpoint_meter(
      shard.transport.endpoint_slot(shard.server->name()));
  // Aggregate snapshots = cache meter + server meter (the partition
  // identity); the aggregate meter itself is disabled on this transport.
  const auto aggregate_snapshot = [&] {
    std::array<Bytes, 3> sum = mechanism_snapshot(endpoint_meter);
    const std::array<Bytes, 3> at_server = mechanism_snapshot(server_meter);
    for (std::size_t m = 0; m < 3; ++m) sum[m] += at_server[m];
    return sum;
  };

  std::array<Bytes, 3> endpoint_at_warmup{};
  bool warmup_captured = false;
  const auto capture_warmup = [&] {
    endpoint_at_warmup = mechanism_snapshot(endpoint_meter);
    shard.aggregate_at_warmup = aggregate_snapshot();
    warmup_captured = true;
  };
  if (trace.info.warmup_end_event == 0) capture_warmup();

  core::CachePolicy& policy = *shard.policy;
  // Pre-size the sample buffers from the exact per-shard counts (see
  // DecodedStream and the touch set above): the hot loop never
  // reallocates, and nothing is reserved that cannot be filled.
  shard.response_sketch.reserve(stream.retained_samples[self]);
  if (shard.record_tapes) {
    shard.query_tape.reserve(stream.postwarmup_routed[self]);
    shard.staleness_tape.reserve(staleness_reserve);
  }
  // Hoisted loop invariants (the compiler cannot prove the opaque policy
  // call leaves them alone).
  const EventTime warmup_end = trace.info.warmup_end_event;
  const double local_exec = options.exec.local_exec_seconds;
  const double server_exec = options.exec.server_exec_seconds;
  const bool open_loop = options.open_loop.enabled;
  const std::size_t window = options.open_loop.max_in_flight;
  std::int64_t order_pos = 0;
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
    if (!warmup_captured && now >= warmup_end) capture_warmup();

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
    } else {
      const auto qi = static_cast<std::size_t>(event.index);
      if (routing[qi] == self && !open_loop) {
        const workload::Query& q = trace.queries[qi];
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
          // r.postwarmup_latency is reconstructed from this stream after
          // the loop (same samples, same order — a bitwise copy).
          shard.yardsticks.response_seconds.add(response);
          shard.response_sketch.add(response);
          if (shard.record_tapes) {
            shard.query_tape.push_back(QuerySample{order_pos, response, lag});
          } else {
            shard.lag_stats.add(lag);
          }
        }
      } else if (routing[qi] == self) {
        const workload::Query& q = trace.queries[qi];
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
        const double lag = events.now() - arrival;
        ++shard.in_flight_queries;
        ++r.queries;
        const std::int64_t tag = static_cast<std::int64_t>(qi);
        const std::int64_t pos = order_pos;
        policy.on_query_async(
            q, [&shard, &r, &events, arrival, lag, now, pos, tag, warmup_end,
                local_exec, server_exec](const core::QueryOutcome& outcome) {
              --shard.in_flight_queries;
              count_outcome(r, outcome);
              const double exec_seconds =
                  outcome.path == core::QueryOutcome::Path::kShipped
                      ? server_exec
                      : local_exec;
              // Response spans arrival -> last reply (the clock sits at
              // the completing delivery), plus the execution surcharge.
              const double response = (events.now() - arrival) + exec_seconds;
              if (now >= warmup_end) {
                shard.yardsticks.response_seconds.add(response);
                shard.response_sketch.add_tagged(response, tag);
                if (shard.record_tapes) {
                  shard.query_tape.push_back(QuerySample{pos, response, lag});
                } else {
                  shard.lag_stats.add(lag);
                }
              }
            });
      }
    }
    // One observation covers both series: every cache->server message is
    // pure overhead (requests, eviction notices), so the replica's
    // aggregate figure total always equals the figure total delivered to
    // its cache endpoint. Checked once after the loop.
    shard.aggregate_series.observe(now,
                                   endpoint_meter.figure_total().as_double());
    ++order_pos;
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
  if (!warmup_captured) capture_warmup();  // warm-up spanned the whole run
  if (open_loop && shard.record_tapes) {
    // Completions land out of trace order; restore the canonical order the
    // deterministic merge expects (order_pos is unique, so the sort is
    // total and thread-count independent).
    std::sort(shard.query_tape.begin(), shard.query_tape.end(),
              [](const QuerySample& a, const QuerySample& b) {
                return a.order_pos < b.order_pos;
              });
  }

  // The single observed series serves both views (see the loop note); the
  // equality it relies on — no figure-mechanism bytes ever land at the
  // repository endpoint — is re-checked here against the final meters.
  DELTA_CHECK(server_meter.figure_total() == Bytes{0});
  shard.aggregate_series.finalize();
  r.series = shard.aggregate_series;
  r.postwarmup_latency = shard.yardsticks.response_seconds;
  r.total_traffic = endpoint_meter.figure_total();
  const std::array<Bytes, 3> final_by = mechanism_snapshot(endpoint_meter);
  for (std::size_t m = 0; m < 3; ++m) {
    r.postwarmup_by_mechanism[m] = final_by[m] - endpoint_at_warmup[m];
    r.postwarmup_traffic += r.postwarmup_by_mechanism[m];
  }
  r.overhead_traffic = endpoint_meter.total(net::Mechanism::kOverhead);

  shard.aggregate_final = aggregate_snapshot();
  shard.aggregate_total =
      endpoint_meter.figure_total() + server_meter.figure_total();
  shard.aggregate_overhead = endpoint_meter.total(net::Mechanism::kOverhead) +
                             server_meter.total(net::Mechanism::kOverhead);
  shard.server_uplink = shard.transport.uplink_stats(
      shard.transport.endpoint_slot(shard.server->name()));
  shard.end_clock = events.now();
  shard.delivered = shard.transport.delivered_count();
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
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
  // One pass over the trace: the shared replay stream, the validated split
  // and every per-partition count.
  const DecodedStream stream = decode_stream(trace, routing, endpoint_count,
                                             sketch_stride, options);

  const std::size_t threads = options.parallel.num_threads == 0
                                  ? util::ThreadPool::hardware_threads()
                                  : options.parallel.num_threads;
  // With a single partition the per-shard streams ARE the combined streams
  // (StreamingStats::merge into an empty accumulator is a bitwise copy),
  // so the sample tapes and the canonical-order re-add would reproduce the
  // fold exactly — skip them and keep the hot loop lean.
  const bool record_tapes = endpoint_count > 1;

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
  core::ProtocolOptions protocol = options.protocol;
  if (any_crash_windows) protocol.probe_on_suspect = true;

  // ---- assemble one replica node graph per partition (calling thread) ----
  std::vector<std::unique_ptr<EventShard>> shards;
  shards.reserve(endpoint_count);
  for (std::size_t i = 0; i < endpoint_count; ++i) {
    const net::LinkModel link = i < options.cache_links.size()
                                    ? options.cache_links[i]
                                    : options.default_link;
    shards.push_back(std::make_unique<EventShard>(trace, options.default_link,
                                                  link, i));
    shards.back()->record_tapes = record_tapes;
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
    shards.back()->server->set_protocol(protocol);
    shards.back()->server->set_admission(options.admission);
    shards.back()->cache->set_protocol(protocol);
    if (any_crash_windows) {
      // Resolve the plan's crash schedules against this replica's endpoint
      // names (first non-empty schedule per endpoint wins, matching the
      // transport's resolution). Each live window becomes a wipe event at
      // its start and a recover event at its heal.
      EventShard& shard = *shards.back();
      const auto add_windows = [&](const std::string& endpoint,
                                   bool is_server) {
        for (const net::CrashSchedule& crash : options.fault_plan.crashes) {
          if (crash.name != endpoint || crash.windows.empty()) continue;
          for (const net::FaultWindow& w : crash.windows) {
            DELTA_CHECK_MSG(
                std::isfinite(w.down_seconds) &&
                    std::isfinite(w.heal_seconds) && w.down_seconds >= 0.0,
                "crash window for '" << endpoint << "' must be finite and "
                                     << "non-negative");
            if (w.heal_seconds <= w.down_seconds) continue;  // empty window
            shard.crash_plan.push_back(EventShard::CrashEvent{
                w.down_seconds, w.heal_seconds - w.down_seconds, is_server,
                /*wipe=*/true});
            shard.crash_plan.push_back(EventShard::CrashEvent{
                w.heal_seconds, 0.0, is_server, /*wipe=*/false});
          }
          return;
        }
      };
      add_windows(shard.server->name(), /*is_server=*/true);
      add_windows(shard.cache->name(), /*is_server=*/false);
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
  // Factories run on the calling thread in endpoint order — the same
  // invocation contract as the synchronous engines, so factories need no
  // thread-safety. Offline policies (SOptimal) emit their up-front load
  // traffic here — their sync façades pump the replica's event queue, so
  // the loads complete (and are metered) inside the warm-up window even
  // over slow links.
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
        replay_event_shard(trace, stream, routing, i, options, *shards[i]);
      });
  const auto replay_end = std::chrono::steady_clock::now();

  // ---- deterministic merge, in canonical order ----
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
  RunResult& c = replay.combined;
  std::vector<EventShard*> shard_ptrs;
  shard_ptrs.reserve(endpoint_count);
  for (const auto& shard : shards) shard_ptrs.push_back(shard.get());
  fold_combined({shard_ptrs.begin(), shard_ptrs.end()}, options.series_stride,
                c);

  for (const auto& shard : shards) {
    out.server_uplink.sends += shard->server_uplink.sends;
    out.server_uplink.busy_seconds += shard->server_uplink.busy_seconds;
    out.server_uplink.total_queue_wait +=
        shard->server_uplink.total_queue_wait;
    out.server_uplink.max_queue_wait =
        std::max(out.server_uplink.max_queue_wait,
                 shard->server_uplink.max_queue_wait);
    out.sim_duration_seconds =
        std::max(out.sim_duration_seconds, shard->end_clock);
    out.delivered_messages += shard->delivered;
    out.coalesced_notices += shard->server->coalesced_notices();
    out.notice_messages += shard->server->notice_messages();
    out.prefiltered_updates += shard->prefiltered_updates;

    // ---- failure/recovery accounting (shard order, so the sums are
    // thread-count independent; each replica has exactly one cache at
    // server slot 0) ----
    EndpointEventYardsticks& y = shard->yardsticks;
    y.protocol = shard->cache->protocol_stats();
    y.notices_logged = shard->server->notices_logged(0);
    y.shed_queries = shard->server->shed_queries();
    y.degraded_queries = shard->policy->degraded_queries();
    ChaosYardsticks& ch = out.chaos;
    ch.timeouts += y.protocol.timeouts;
    ch.retries += y.protocol.retries;
    ch.failed_requests += y.protocol.failed_requests;
    ch.late_replies += y.protocol.late_replies;
    ch.duplicate_notices_suppressed += y.protocol.duplicate_notices;
    ch.shed_replies += y.protocol.shed_replies;
    ch.resyncs += y.protocol.resyncs;
    ch.replayed_notices += y.protocol.replayed_notices;
    ch.notices_applied += y.protocol.notices_applied;
    ch.unavailable_seconds += y.protocol.unavailable_seconds;
    ch.max_recovery_staleness_seconds =
        std::max(ch.max_recovery_staleness_seconds,
                 y.protocol.max_recovery_staleness_seconds);
    ch.shed_queries += y.shed_queries;
    ch.request_duplicates_suppressed += shard->server->duplicates_suppressed();
    ch.resyncs_served += shard->server->resyncs_served();
    ch.notices_logged += y.notices_logged;
    ch.degraded_queries += y.degraded_queries;
    const net::FaultStats& faults = shard->transport.fault_stats();
    ch.faults_dropped += faults.dropped;
    ch.faults_duplicated += faults.duplicated;
    ch.faults_reordered += faults.reordered;
    ch.partition_dropped += faults.partition_dropped;
    // ---- crash-stop accounting (ISSUE 10) ----
    ch.crash_restarts += y.protocol.crash_restarts;
    ch.crash_dropped += faults.crash_dropped;
    ch.cold_misses += y.protocol.cold_misses;
    ch.budget_exceeded_retries += y.protocol.budget_exceeded_retries;
    ch.crash_downtime_seconds += shard->crash_downtime;
    ch.max_reconvergence_seconds =
        std::max(ch.max_reconvergence_seconds,
                 y.protocol.max_reconvergence_seconds);
    ch.post_restart_staleness_seconds =
        std::max(ch.post_restart_staleness_seconds,
                 y.protocol.post_restart_staleness_seconds);
  }
  // Server-side crash accounting: every replica fires the identical server
  // schedule, so per-replica counts are copies — add shard 0's exactly once.
  out.chaos.crash_restarts += shards.front()->server->crash_restarts();
  out.chaos.crash_downtime_seconds +=
      shards.front()->server_crash_downtime;

  if (record_tapes) {
    // Re-add the per-query samples in merged-trace order: StreamingStats
    // is order-sensitive in its low bits, and the canonical order is the
    // one the partitions share (each query event belongs to exactly one
    // partition, so positions are unique and the order total). Each tape
    // is already sorted, so this is a K-way merge, free for one partition.
    merge_tapes(shard_ptrs, &EventShard::query_tape,
                [](const QuerySample& s) { return s.order_pos; },
                [&](const QuerySample& s) {
                  c.postwarmup_latency.add(s.response);
                  out.response_seconds.add(s.response);
                  out.dispatch_lag_seconds.add(s.lag);
                });
    // Staleness samples merge by delivery instant; ties (same instant on
    // different partitions) resolve in endpoint order via merge stability.
    merge_tapes(shard_ptrs, &EventShard::staleness_tape,
                [](const StalenessSample& s) { return s.delivered_at; },
                [&](const StalenessSample& s) {
                  out.staleness_seconds.add(s.gap);
                });
  } else {
    // One partition: merging into the empty accumulators copies its
    // streams bitwise.
    for (const auto& shard : shards) {
      c.postwarmup_latency.merge(shard->result.postwarmup_latency);
      out.response_seconds.merge(shard->yardsticks.response_seconds);
      out.staleness_seconds.merge(shard->yardsticks.staleness_seconds);
      out.dispatch_lag_seconds.merge(shard->lag_stats);
    }
  }
  if (shards.size() == 1) {
    out.response_sketch = std::move(shards.front()->response_sketch);
  } else {
    for (const auto& shard : shards) {
      out.response_sketch.merge(shard->response_sketch);
    }
  }

  for (auto& shard : shards) {
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
