#include "sim/event_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "core/cache_node.h"
#include "core/server_node.h"
#include "sim/event_tapes.h"
#include "sim/replica.h"
#include "util/check.h"
#include "util/event_queue.h"
#include "util/thread_pool.h"

namespace delta::sim {

namespace {

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
  /// on_crash_restart at the end of the event during whose advance or
  /// dispatch the wipe fired — the one point where no policy dispatch
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

/// A partition's query tape: its span of routed queries in each decode
/// chunk, read in chunk order. Past the last query its front is a sentinel
/// at kEndOfTrace.
class TapeCursor {
 public:
  TapeCursor(const EventTapes& tapes, std::size_t endpoint)
      : tapes_(tapes), endpoint_(endpoint) {
    next_span();
  }

  [[nodiscard]] const QuerySlot& front() const { return *at_; }
  /// The query `n` slots on in this chunk's span, or null.
  [[nodiscard]] const QuerySlot* ahead(std::size_t n) const {
    return end_ - at_ > static_cast<std::ptrdiff_t>(n) ? at_ + n : nullptr;
  }
  void pop() {
    if (++at_ == end_) next_span();
  }

 private:
  static constexpr QuerySlot kEnd{0.0, kNoQuery, kEndOfTrace};

  void next_span() {
    while (chunk_ < tapes_.chunk_count()) {
      const std::span<const QuerySlot> span = tapes_.tape(chunk_++, endpoint_);
      if (!span.empty()) {
        at_ = span.data();
        end_ = at_ + span.size();
        return;
      }
    }
    at_ = &kEnd;
    end_ = at_ + 1;
  }

  const EventTapes& tapes_;
  std::size_t endpoint_;
  std::size_t chunk_ = 0;
  const QuerySlot* at_ = nullptr;
  const QuerySlot* end_ = nullptr;
};

// Over zero-latency links sim_golden_test pins this loop to the golden
// tables; event_engine_test pins bit-identity across thread counts and
// every policy's WAN results.
//
// The partition merge-walks three sequences by trace position: its own
// query tape, the stops and the shared update column. It reads nothing
// else of the trace. An update its prefilter gate rejects is skipped
// without a clock advance, and so is every foreign query: advance_until
// runs every delivery due up to an arrival in time order, so the events
// between two processed arrivals run the same, in the same order, inside
// the later one's advance. The traffic ledger needs only the stops: its
// warm-up snapshot, its series points and its last observation all fall
// on them.
//
// A cache wipe fires inside some event's advance_until or dispatch, and the
// policy's part of it runs at the end of that event
// (EventShard::policy_wipe_pending), so which events a partition processes
// decides what the wiped policy sees. A crash-windowed partition therefore
// also stops at a wake stop per cache wipe: the first event whose arrival is
// at or past the wipe's instant, whose advance fires it unless an earlier
// dispatch already has. Its wipe then runs where it would if the partition
// processed every event.
void replay_event_shard(const workload::Trace& trace, const EventTapes& tapes,
                        std::size_t self, const EventEngineOptions& options,
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
  // registration. Crashes keep it so: a server crash only clears the
  // registration row, a cache crash only empties the cache, and the
  // kRecoverRequest that re-registers a cache after a server restart
  // carries its resident set, a subset of its earlier loads. An update
  // whose object is outside the touch set is therefore an invisible
  // repository-size bump here — skipping its ingest is exact. The decode
  // pass builds a row only for partitions that prefilter (see
  // run_policy_event). The registration row is read before the preload
  // flush below, while it still is the post-factory row.
  const std::vector<std::uint8_t>& routed_objects = tapes.touch_rows[self];
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
  // (identical on every shard, so determinism is preserved). Each cache
  // wipe adds a wake stop at its clamped instant.
  std::vector<double> wakes;
  for (std::size_t k = 0; k < shard.crash_plan.size(); ++k) {
    const EventShard::CrashEvent& ce = shard.crash_plan[k];
    const double at = std::max(ce.at, events.now());
    events.schedule(at, &EventShard::on_crash_event, &shard,
                    static_cast<std::uint64_t>(k));
    if (ce.wipe && !ce.server) wakes.push_back(at);
  }
  // Crash-free partitions walk the shared stops.
  const std::vector<Stop> woken =
      wakes.empty() ? std::vector<Stop>{} : with_wake_stops(tapes, wakes);
  const Stop* stop = wakes.empty() ? tapes.stops.data() : woken.data();

  RunResult& r = shard.result;
  r.policy_name = shard.policy->name();
  TrafficLedger ledger(shard.cache->meter(), trace.info.warmup_end_event,
                       options.series_stride, r);

  core::CachePolicy& policy = *shard.policy;
  core::ServerNode& server = *shard.server;
  // Pre-size the sketch from the exact per-shard count (see EventTapes):
  // the hot loop never reallocates it, and nothing is reserved that cannot
  // be filled.
  shard.response_sketch.reserve(tapes.retained_samples[self]);
  // Hoisted loop invariants (the compiler cannot prove the opaque policy
  // call leaves them alone).
  const EventTime warmup_end = trace.info.warmup_end_event;
  const double local_exec = options.exec.local_exec_seconds;
  const double server_exec = options.exec.server_exec_seconds;
  shard.local_exec = local_exec;
  shard.server_exec = server_exec;
  const bool open_loop = options.open_loop.enabled;
  const std::size_t window = options.open_loop.max_in_flight;
  const UpdateSlot* const column = tapes.updates;
  const UpdateSlot* update = column;
  TapeCursor tape{tapes, self};

  const auto run_pending_wipe = [&] {
    if (shard.policy_wipe_pending) {
      // Deferred crash wipe (see the EventShard field note), at the end of
      // an event: no dispatch frame is live here, so the policy's soft
      // state can be dropped without invalidating anything on the stack.
      shard.policy_wipe_pending = false;
      policy.on_crash_restart();
    }
  };
  const auto admitted = [&] {
    return gate == nullptr || gate[update->object] != 0;
  };
  // The update at `update`, the clock already at its arrival. Invalidation
  // notices due immediately (zero-latency links) are delivered by the next
  // processed event's advance_until — before any policy dispatch and
  // before the warm-up snapshot can observe their (overhead-only,
  // figure-invisible) bytes, exactly as if they had been pumped here.
  const auto ingest = [&] {
    server.ingest_column(static_cast<std::uint32_t>(update - column),
                         update->object, Bytes{update->cost});
  };
  // The query at the tape's front, the clock already at its arrival.
  const auto dispatch = [&] {
    const QuerySlot& slot = tape.front();
    if (const QuerySlot* lead = tape.ahead(kPrefetchLead)) {
      prefetch_query(trace.queries[lead->index]);
    }
    // The object list of a query whose record was prefetched half the lead
    // ago, so reading where the list lives does not stall: a one-object
    // list sits inside that record, a longer list's heap block is a
    // separate line.
    if (const QuerySlot* half = tape.ahead(kPrefetchLead / 2)) {
      __builtin_prefetch(trace.queries[half->index].objects.data());
    }
    const double arrival = slot.arrival;
    const auto qi = static_cast<std::size_t>(slot.index);
    const workload::Query& q = trace.queries[qi];
    const EventTime now = q.time;
    tape.pop();
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
        DELTA_CHECK_MSG(ran, "open-loop window full with an idle event queue");
      }
      ++r.queries;
      const std::uint32_t slot_index = shard.park_query(
          {arrival, events.now() - arrival, now,
           static_cast<std::int64_t>(qi)});
      policy.on_query_async(q,
                            {&EventShard::on_query_done, &shard, slot_index});
    }
  };

  for (;;) {
    const std::uint32_t next = std::min(stop->position, tape.front().position);
    // Every update before the next stop or own query. Deliver everything
    // due up to an event's arrival, then move the clock to it (messages
    // still in flight are delivered — and metered — later, so a snapshot
    // only sees traffic that has landed).
    for (; update->position < next; ++update) {
      __builtin_prefetch(update + 16);
      if (admitted()) {
        events.advance_until(update->arrival);
        ingest();
        run_pending_wipe();
      } else {
        ++shard.prefiltered_updates;
      }
    }
    if (next == kEndOfTrace) break;
    const bool at_stop = stop->position == next;
    const bool samples = at_stop && stop->samples_ledger;
    const bool is_update = update->position == next;
    const bool is_own = !is_update && tape.front().position == next;
    events.advance_until(is_update ? update->arrival
                         : is_own  ? tape.front().arrival
                                   : stop->arrival);
    if (samples) ledger.before_event(stop->now);
    if (is_update) {
      if (admitted()) {
        ingest();
      } else {
        ++shard.prefiltered_updates;
      }
      ++update;
    } else if (is_own) {
      dispatch();
    }
    if (samples) ledger.after_event(stop->now);
    if (at_stop) ++stop;
    run_pending_wipe();
  }
  // End-of-run drain: held-back invalidation notices first (congestion
  // batching; no-op otherwise), then deliver (and meter) everything still
  // in flight — which fires every outstanding open-loop completion —
  // before the final reads.
  server.flush_pending_notices();
  events.run_until_idle();
  run_pending_wipe();  // a crash window past the last event still wipes
  DELTA_CHECK(shard.in_flight_queries == 0);
  shard.server_overhead = ledger.finish(server.meter());
  // Each replica has exactly one cache, so the server's ledger is its own.
  shard.yardsticks.protocol = shard.cache->counters();
  shard.yardsticks.notices_logged = server.counters().notices_logged;
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
/// pointwise. Every partition observes its series at the same shared stops,
/// which hold every point a series fed every event would record, so all
/// series carry points at the same event indices; their values are integer
/// byte counts (exact in a double), so the sums are exact and independent
/// of which thread replayed which partition.
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
  const std::size_t threads = options.parallel.thread_count();
  const std::vector<std::uint32_t> computed_assignment =
      assignment == nullptr
          ? workload::assign_queries(trace, endpoint_count, strategy, threads)
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
  // hear every update and stand down. Crash-windowed replicas prefilter
  // too: a crash clears rows, and the recovery that rebuilds them registers
  // only objects the replica loaded before (see replay_event_shard).
  std::vector<bool> prefilters(endpoint_count);
  for (std::size_t i = 0; i < endpoint_count; ++i) {
    prefilters[i] = options.prefilter_updates &&
                    shards[i]->server->subscription() !=
                        core::MetadataSubscription::kAll;
  }
  // One pass over the trace, in parallel blocks on the engine's threads:
  // the update column, every partition's query tape, the stops, the
  // validated split, every per-partition count and the prefiltering
  // partitions' touch rows.
  const EventTapes tapes =
      decode_tapes(trace, routing, prefilters, sketch_stride, options,
                   util::block_count(trace.order.size(), threads));

  // ---- replay all partitions (wait-free; see lookahead argument in
  // event_engine.h). Partitions are LPT-packed onto the workers by exact
  // routed-query counts and a worker that drains its own queue steals a
  // straggler's pending partition — neither changes replay order within a
  // partition, so results stay bit-identical. ----
  const std::vector<double> weights(tapes.routed_queries.begin(),
                                    tapes.routed_queries.end());
  const auto replay_start = std::chrono::steady_clock::now();
  const std::int64_t steal_count = util::parallel_for_dynamic(
      endpoint_count,
      util::lpt_assignment(weights, std::min(threads, endpoint_count)),
      [&](std::size_t i) {
        replay_event_shard(trace, tapes, i, options, *shards[i]);
      });
  const auto replay_end = std::chrono::steady_clock::now();

  // ---- deterministic merge, in endpoint order ----
  EventRunResult out;
  out.steal_count = steal_count;
  if (!routing.empty()) {
    const std::size_t max_routed = *std::max_element(
        tapes.routed_queries.begin(), tapes.routed_queries.end());
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
      tapes.retained_samples.begin(), tapes.retained_samples.end(),
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
