#include "sim/replica.h"

#include "util/check.h"

namespace delta::sim {

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
RunResult replay_replica(const workload::Trace& trace,
                         core::DeltaSystem& system, core::CachePolicy& policy,
                         std::int64_t series_stride,
                         const LatencyModel& latency,
                         util::QuantileSketch* latency_sink) {
  RunResult r;
  r.policy_name = policy.name();
  const EventTime warmup_end = trace.info.warmup_end_event;
  TrafficLedger ledger(system.cache().meter(), warmup_end, series_stride, r);
  const std::size_t object_count = system.server().object_count();

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
    ledger.before_event(now);

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
    ledger.after_event(now);
  }
  // The single-cache result is the whole replica's view, so its overhead
  // also counts the chatter delivered to the repository.
  const Bytes repository_overhead = ledger.finish(system.server().meter());
  r.overhead_traffic += repository_overhead;
  return r;
}

}  // namespace delta::sim
