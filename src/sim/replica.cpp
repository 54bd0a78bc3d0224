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

// DETERMINISM CONSTRAINT (golden tables): tests/sim_golden_test.cpp pins
// this loop's figures byte-for-byte. The policies it drives keep hot state
// in util::FlatMap, whose visit order depends on insertion history — so no
// policy decision may depend on map iteration order. Where a fold over a
// map picks a winner it must carry an explicit (value, id) tie-break, and
// batch decisions must be totally ordered by an explicit sort (see the
// audit notes at each for_each call site; regression-pinned by
// tests/iteration_order_test.cpp).
void replay_replica(const workload::Trace& trace, core::DeltaSystem& system,
                    core::CachePolicy& policy,
                    const std::vector<std::uint32_t>* routing,
                    std::uint32_t self, std::int64_t series_stride,
                    const LatencyModel& latency,
                    util::QuantileSketch* latency_sink,
                    std::vector<LatencySample>* latency_tape,
                    ReplicaReplay& out) {
  RunResult& r = out.result;
  r.policy_name = policy.name();
  r.warmup_end = trace.info.warmup_end_event;
  out.aggregate_series = util::CumulativeSeries{series_stride};

  const net::TrafficMeter& meter = system.meter();
  const EventTime warmup_end = trace.info.warmup_end_event;
  bool warmup_captured = false;
  const auto capture_warmup = [&] {
    out.aggregate_at_warmup = mechanism_snapshot(meter);
    warmup_captured = true;
  };
  if (warmup_end == 0) capture_warmup();

  std::int64_t order_pos = 0;
  for (const workload::Event& event : trace.order) {
    const auto index = static_cast<std::size_t>(event.index);
    const bool is_update = event.kind == workload::Event::Kind::kUpdate;
    const EventTime now =
        is_update ? trace.updates[index].time : trace.queries[index].time;
    // Snapshot the meter the moment the measurement window opens, before
    // this event's traffic.
    if (!warmup_captured && now >= warmup_end) capture_warmup();

    if (is_update) {
      system.server().ingest_update(trace.updates[index]);
    } else if (routing == nullptr || (*routing)[index] == self) {
      const core::QueryOutcome outcome = policy.on_query(trace.queries[index]);
      ++r.queries;
      count_outcome(r, outcome);
      if (now >= warmup_end) {
        const double seconds = proxy_response_seconds(latency, outcome);
        r.postwarmup_latency.add(seconds);
        if (latency_sink != nullptr) latency_sink->add(seconds);
        if (latency_tape != nullptr) {
          latency_tape->push_back(LatencySample{order_pos, seconds});
        }
      }
    }
    out.aggregate_series.observe(now, meter.figure_total().as_double());
    ++order_pos;
  }
  if (!warmup_captured) capture_warmup();  // warm-up spanned the whole run
  out.aggregate_series.finalize();
  out.aggregate_final = mechanism_snapshot(meter);
  out.aggregate_total = meter.figure_total();
  out.aggregate_overhead = meter.total(net::Mechanism::kOverhead);

  // The endpoint view. Every figure byte is delivered to the cache, never
  // to the repository, so the endpoint's figures are the replica's at every
  // instant (checked once here instead of observing a second series per
  // event); only the overhead differs.
  const net::TrafficMeter& endpoint = system.cache().meter();
  DELTA_CHECK(endpoint.figure_total() == out.aggregate_total);
  r.series = out.aggregate_series;
  r.total_traffic = out.aggregate_total;
  for (std::size_t m = 0; m < 3; ++m) {
    r.postwarmup_by_mechanism[m] =
        out.aggregate_final[m] - out.aggregate_at_warmup[m];
    r.postwarmup_traffic += r.postwarmup_by_mechanism[m];
  }
  r.overhead_traffic = endpoint.total(net::Mechanism::kOverhead);
}

}  // namespace delta::sim
