#include "sim/replica.h"

#include "util/check.h"

namespace delta::sim {

void fold_combined(const std::vector<const ReplicaReplay*>& replicas,
                   std::int64_t series_stride, RunResult& combined) {
  DELTA_CHECK(!replicas.empty());
  RunResult& c = combined;
  c.policy_name = replicas.front()->result.policy_name;
  c.warmup_end = replicas.front()->result.warmup_end;
  c.series = util::CumulativeSeries{series_stride};

  std::array<Bytes, 3> at_warmup{};
  std::array<Bytes, 3> final_by{};
  for (const ReplicaReplay* replica : replicas) {
    const RunResult& r = replica->result;
    c.queries += r.queries;
    c.cache_fresh += r.cache_fresh;
    c.cache_after_updates += r.cache_after_updates;
    c.shipped += r.shipped;
    c.objects_loaded += r.objects_loaded;
    c.total_traffic += replica->aggregate_total;
    c.overhead_traffic += replica->aggregate_overhead;
    for (std::size_t m = 0; m < 3; ++m) {
      at_warmup[m] += replica->aggregate_at_warmup[m];
      final_by[m] += replica->aggregate_final[m];
    }
  }
  for (std::size_t m = 0; m < 3; ++m) {
    c.postwarmup_by_mechanism[m] = final_by[m] - at_warmup[m];
    c.postwarmup_traffic += c.postwarmup_by_mechanism[m];
  }

  // Combined cumulative series: every replica observed every event, and the
  // series' sampling decisions depend only on the (identical) sequence of
  // event indices, so all replica series carry points at the same indices.
  // Their values are integer byte counts (exact in a double far past any
  // realistic traffic total), so the pointwise sum is exact and independent
  // of which thread replayed which replica.
  const auto& reference = replicas.front()->aggregate_series.points();
  if (reference.empty()) return;
  for (std::size_t k = 0; k < reference.size(); ++k) {
    double sum = 0.0;
    for (const ReplicaReplay* replica : replicas) {
      const auto& points = replica->aggregate_series.points();
      DELTA_CHECK(points.size() == reference.size() &&
                  points[k].event_index == reference[k].event_index);
      sum += points[k].value;
    }
    c.series.observe(reference[k].event_index, sum);
  }
  c.series.finalize();
}

namespace {

/// Prefetches the rows `ahead` will touch: per object it names, the
/// repository's size row and whatever the policy's hook pulls in. The ids
/// are read from the record itself for a one-object query (its inline
/// ObjectList slot), from the list's heap block otherwise.
void prefetch_event(const workload::Trace& trace, const workload::Event& ahead,
                    const core::ServerNode& server,
                    core::CacheNode::PrefetchHook policy_rows) {
  const auto index = static_cast<std::size_t>(ahead.index);
  if (ahead.kind == workload::Event::Kind::kUpdate) {
    const ObjectId o = trace.updates[index].object;
    server.prefetch_object(o);
    policy_rows(o);
    return;
  }
  for (const ObjectId o : trace.queries[index].objects) {
    server.prefetch_object(o);
    policy_rows(o);
  }
}

}  // namespace

// DETERMINISM CONSTRAINT (golden tables): tests/sim_golden_test.cpp pins
// this loop's figures byte-for-byte. The policies it drives keep their
// per-object state in vectors indexed by ObjectId and walk residents in
// ascending id order, so every walk is a function of the resident set, not
// of the insertion history. A fold that picks a winner still carries an
// explicit (value, id) tie-break and batch decisions are totally ordered
// by an explicit sort, so no decision leans on the walk order either
// (pinned by tests/iteration_order_test.cpp).
//
// Queries are checked against the repository's id range here: the
// repository checks every update it ingests, but a query reaches the
// server only when it is shipped (never, for Replica). The lookahead
// prefetch meets a bad id kLookaheadDistance events earlier and ignores
// it, so these checks still throw at the same event.
void replay_replica(const workload::Trace& trace, core::DeltaSystem& system,
                    core::CachePolicy& policy, std::int64_t series_stride,
                    const LatencyModel& latency,
                    util::QuantileSketch* latency_sink, ReplicaReplay& out) {
  RunResult& r = out.result;
  r.policy_name = policy.name();
  r.warmup_end = trace.info.warmup_end_event;
  out.aggregate_series = util::CumulativeSeries{series_stride};

  const net::TrafficMeter& meter = system.meter();
  const std::size_t object_count = system.server().object_count();
  const EventTime warmup_end = trace.info.warmup_end_event;
  bool warmup_captured = false;
  const auto capture_warmup = [&] {
    out.aggregate_at_warmup = mechanism_snapshot(meter);
    warmup_captured = true;
  };
  if (warmup_end == 0) capture_warmup();

  const std::size_t events = trace.order.size();
  const std::size_t lookahead_end =
      object_count >= kLookaheadMinObjects && events > kLookaheadDistance
          ? events - kLookaheadDistance
          : 0;
  const core::CacheNode::PrefetchHook policy_rows =
      system.cache().prefetch_hook();
  for (std::size_t i = 0; i < events; ++i) {
    if (i < lookahead_end) {
      prefetch_event(trace, trace.order[i + kLookaheadDistance],
                     system.server(), policy_rows);
    }
    const workload::Event& event = trace.order[i];
    const auto index = static_cast<std::size_t>(event.index);
    const bool is_update = event.kind == workload::Event::Kind::kUpdate;
    const EventTime now =
        is_update ? trace.updates[index].time : trace.queries[index].time;
    // Snapshot the meter the moment the measurement window opens, before
    // this event's traffic.
    if (!warmup_captured && now >= warmup_end) capture_warmup();

    if (is_update) {
      system.server().ingest_update(trace.updates[index]);
    } else {
      const workload::Query& q = trace.queries[index];
      for (const ObjectId o : q.objects) {
        DELTA_CHECK_MSG(static_cast<std::size_t>(o.value()) < object_count,
                        "query " << q.id.value() << " names object "
                                 << o.value() << " out of range");
      }
      const core::QueryOutcome outcome = policy.on_query(q);
      ++r.queries;
      count_outcome(r, outcome);
      if (now >= warmup_end) {
        const double seconds = proxy_response_seconds(latency, outcome);
        r.postwarmup_latency.add(seconds);
        if (latency_sink != nullptr) latency_sink->add(seconds);
      }
    }
    out.aggregate_series.observe(now, meter.figure_total().as_double());
  }
  if (!warmup_captured) capture_warmup();  // warm-up spanned the whole run
  out.aggregate_series.finalize();
  out.aggregate_final = mechanism_snapshot(meter);
  out.aggregate_total = meter.figure_total();
  out.aggregate_overhead = meter.total(net::Mechanism::kOverhead);

  // Every figure byte is delivered to the cache, never to the repository
  // (the event engine's per-endpoint figures rest on this).
  DELTA_CHECK(system.cache().meter().figure_total() == out.aggregate_total);
}

}  // namespace delta::sim
