#include "sim/event_tapes.h"

#include <algorithm>
#include <atomic>
#include <new>
#include <ranges>

#include "util/check.h"
#include "util/thread_pool.h"
#include "workload/arrival_process.h"

namespace delta::sim {

namespace {

/// What one decode block leaves for the join. The block counts in its own
/// locals and stores them once at its end, so blocks never write to a
/// shared cache line in their loops.
struct BlockTally {
  /// Per partition: routed and sketch-retained queries.
  std::vector<std::size_t> routed;
  std::vector<std::size_t> retained;
  std::size_t updates = 0;
};

bool index_in_range(const workload::Trace& trace,
                    const workload::Event& event) {
  const auto i = static_cast<std::size_t>(event.index);
  return event.index >= 0 &&
         i < (event.kind == workload::Event::Kind::kUpdate
                  ? trace.updates.size()
                  : trace.queries.size());
}

/// The trace time of the event at `position`. An event whose index is out
/// of range reads as the latest time: the stop selection runs beside the
/// blocks that validate the trace, and one of them throws for that event.
EventTime time_at(const workload::Trace& trace, std::size_t position) {
  const workload::Event& event = trace.order[position];
  if (!index_in_range(trace, event)) {
    return std::numeric_limits<EventTime>::max();
  }
  const auto i = static_cast<std::size_t>(event.index);
  return event.kind == workload::Event::Kind::kUpdate ? trace.updates[i].time
                                                      : trace.queries[i].time;
}

/// The first position in [from, end) whose event time is at least `t`, or
/// `end`. Event times never decrease, so a galloping search finds an event
/// `d` positions on in O(log d) record reads.
std::size_t first_at_or_after(const workload::Trace& trace, std::size_t from,
                              std::size_t end, EventTime t) {
  // Every event in [from, lo) is earlier than t; hi is end or not earlier.
  std::size_t lo = from;
  std::size_t hi = from;
  for (std::size_t step = 1; hi < end && time_at(trace, hi) < t; step *= 2) {
    lo = hi + 1;
    hi = lo + step;
  }
  hi = std::min(hi, end);
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (time_at(trace, mid) < t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// The stops, in trace order: the events util::CumulativeSeries records a
/// point at when it observes every event (the first at or past time 0,
/// then the first at least series_stride ticks past the last point), the
/// first event inside the measurement window, whose pre-event traffic is
/// the warm-up snapshot, and the last event, whose point finalize() keeps.
/// Block 0 selects them once it has decoded its own range, so the search
/// adds no serial step; it reads only record times, which no block writes,
/// and its result is used only when every block validated its range.
void select_stops(EventTapes& tapes, std::int64_t series_stride) {
  const workload::Trace& trace = *tapes.trace;
  const std::size_t n = trace.order.size();
  std::vector<std::size_t> at;
  EventTime next_sample = 0;
  for (std::size_t pos = first_at_or_after(trace, 0, n, next_sample); pos < n;
       pos = first_at_or_after(trace, pos + 1, n, next_sample)) {
    at.push_back(pos);
    const EventTime now = time_at(trace, pos);
    // No event is later than the largest time: this point is the last.
    if (now > std::numeric_limits<EventTime>::max() - series_stride) break;
    next_sample = now + series_stride;
  }
  const std::size_t warmup =
      first_at_or_after(trace, 0, n, trace.info.warmup_end_event);
  if (warmup < n) at.push_back(warmup);
  if (n > 0) at.push_back(n - 1);
  std::sort(at.begin(), at.end());
  at.erase(std::unique(at.begin(), at.end()), at.end());
  tapes.stops.reserve(at.size() + 1);
  for (const std::size_t pos : at) {
    tapes.stops.push_back({tapes.arrival_at(pos), time_at(trace, pos),
                           static_cast<std::uint32_t>(pos)});
  }
  tapes.stops.push_back({0.0, 0, kEndOfTrace});
}

}  // namespace

double EventTapes::closed_loop_arrival(std::size_t position) const {
  return static_cast<double>(time_at(*trace, position)) * seconds_per_event;
}

std::vector<Stop> with_wake_stops(const EventTapes& tapes,
                                  std::span<const double> wakes) {
  const std::size_t n = tapes.trace->order.size();
  std::vector<Stop> stops(tapes.stops.begin(), tapes.stops.end() - 1);
  for (const double at : wakes) {
    // Arrivals never decrease, so the events arriving before `at` are a
    // prefix of the order.
    const std::size_t pos = *std::ranges::partition_point(
        std::views::iota(std::size_t{0}, n),
        [&](std::size_t p) { return tapes.arrival_at(p) < at; });
    if (pos == n) continue;
    stops.push_back({tapes.arrival_at(pos), time_at(*tapes.trace, pos),
                     static_cast<std::uint32_t>(pos),
                     /*samples_ledger=*/false});
  }
  // By position, a shared stop ahead of a wake stop at the same event; then
  // one stop per event.
  std::sort(stops.begin(), stops.end(), [](const Stop& a, const Stop& b) {
    return a.position != b.position ? a.position < b.position
                                    : a.samples_ledger > b.samples_ledger;
  });
  stops.erase(std::unique(stops.begin(), stops.end(),
                          [](const Stop& a, const Stop& b) {
                            return a.position == b.position;
                          }),
              stops.end());
  stops.push_back(tapes.stops.back());
  return stops;
}

EventTapes decode_tapes(const workload::Trace& trace,
                        const std::vector<std::uint32_t>& routing,
                        const std::vector<bool>& prefilters,
                        std::int64_t sketch_stride,
                        const EventEngineOptions& options,
                        std::size_t blocks, std::size_t chunk_events) {
  DELTA_CHECK(blocks > 0 && chunk_events > 0);
  DELTA_CHECK(options.series_stride > 0);
  const std::size_t endpoint_count = prefilters.size();
  const std::size_t object_count = trace.initial_object_bytes.size();
  const std::size_t event_count = trace.order.size();
  const EventTime warmup_end = trace.info.warmup_end_event;
  // Trace positions and indices ride in 32 bits, below the sentinel.
  DELTA_CHECK(event_count < kEndOfTrace && trace.queries.size() < kNoQuery &&
              trace.updates.size() < kEndOfTrace);
  EventTapes tapes;
  tapes.trace = &trace;
  tapes.endpoint_count = endpoint_count;
  tapes.seconds_per_event = options.seconds_per_event;
  // Storage layout: the column, the query slots, then (open loop) the
  // arrivals; each part's size is a multiple of 8 bytes, so every part is
  // aligned for its slots. The slots are implicit-lifetime types, which
  // the byte array's allocation creates; std::launder reaches them.
  const std::size_t column_bytes =
      (trace.updates.size() + 1) * sizeof(UpdateSlot);
  const std::size_t slot_bytes = event_count * sizeof(QuerySlot);
  const std::size_t arrival_bytes =
      options.open_loop.enabled ? event_count * sizeof(double) : 0;
  tapes.storage = std::make_unique_for_overwrite<std::byte[]>(
      column_bytes + slot_bytes + arrival_bytes);
  tapes.updates =
      std::launder(reinterpret_cast<UpdateSlot*>(tapes.storage.get()));
  tapes.queries = std::launder(
      reinterpret_cast<QuerySlot*>(tapes.storage.get() + column_bytes));
  tapes.touch_rows.resize(endpoint_count);
  for (std::size_t e = 0; e < endpoint_count; ++e) {
    if (prefilters[e]) tapes.touch_rows[e].assign(object_count, 0);
  }
  // Open loop: arrival instants come from the ArrivalProcess schedule (the
  // trace's merged ORDER is untouched), drawn from one sequential stream,
  // so they are independent of the block count. One block draws them as
  // it decodes, which spares the single-thread path a second pass over
  // the trace; several blocks read them from a serial pass run first.
  std::unique_ptr<workload::ArrivalProcess> arrivals;
  if (options.open_loop.enabled) {
    arrivals = std::make_unique<workload::ArrivalProcess>(
        options.open_loop.arrival, options.open_loop.rate_per_sec,
        options.open_loop.seed);
    tapes.arrivals = std::launder(reinterpret_cast<double*>(
        tapes.storage.get() + column_bytes + slot_bytes));
    if (blocks > 1) {
      for (std::size_t pos = 0; pos < event_count; ++pos) {
        tapes.arrivals[pos] = arrivals->next();
      }
    }
  }
  workload::ArrivalProcess* const block_arrivals =
      blocks == 1 ? arrivals.get() : nullptr;
  UpdateSlot* const column = tapes.updates;
  QuerySlot* const slots = tapes.queries;
  double* const event_arrivals = tapes.arrivals;

  const std::size_t chunk_count =
      (event_count + chunk_events - 1) / chunk_events;
  tapes.groups.resize(chunk_count * (endpoint_count + 1));
  std::vector<BlockTally> tallies(blocks);
  util::parallel_for_blocks(
      chunk_count, blocks,
      [&](std::size_t b, std::size_t chunk_begin, std::size_t chunk_end) {
        const std::size_t begin = chunk_begin * chunk_events;
        std::vector<std::size_t> routed(endpoint_count, 0);
        std::vector<std::size_t> retained(endpoint_count, 0);
        std::size_t updates = 0;
        // Per chunk: its queries per partition, then the next free slot of
        // each partition's group.
        std::vector<std::uint32_t> counts(endpoint_count);
        std::vector<std::uint32_t> cursor(endpoint_count);
        // Update ids follow their rank in the merged order and event times
        // never decrease, across block boundaries too: the block continues
        // from the last update and the last event before it. (When those
        // are themselves bad, an earlier block reports them first.)
        std::int64_t next_update = 0;
        for (std::size_t pos = begin; pos-- > 0;) {
          const workload::Event& event = trace.order[pos];
          if (event.kind == workload::Event::Kind::kUpdate) {
            next_update = std::int64_t{event.index} + 1;
            break;
          }
        }
        EventTime previous = begin > 0
                                 ? time_at(trace, begin - 1)
                                 : std::numeric_limits<EventTime>::min();
        for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
          const std::size_t first = c * chunk_events;
          const std::size_t last = std::min(event_count, first + chunk_events);
          // Count pass, over the chunk's order and routing only, which the
          // write pass then reads again from the CPU cache. It stops at the
          // first query whose index or routing the write pass rejects; the
          // write pass throws there, after any earlier bad object id, so
          // the first bad event in trace order is still the one reported.
          std::fill(counts.begin(), counts.end(), 0);
          for (std::size_t pos = first; pos < last; ++pos) {
            const workload::Event& event = trace.order[pos];
            if (event.kind == workload::Event::Kind::kUpdate) continue;
            if (!index_in_range(trace, event) ||
                routing[static_cast<std::size_t>(event.index)] >=
                    endpoint_count) {
              break;
            }
            ++counts[routing[static_cast<std::size_t>(event.index)]];
          }
          std::uint32_t* const group = &tapes.groups[c * (endpoint_count + 1)];
          auto next_slot = static_cast<std::uint32_t>(first);
          for (std::size_t e = 0; e < endpoint_count; ++e) {
            group[e] = next_slot;
            cursor[e] = next_slot;
            next_slot += counts[e];
            routed[e] += counts[e];
          }
          group[endpoint_count] = next_slot;

          for (std::size_t pos = first; pos < last; ++pos) {
            const workload::Event& event = trace.order[pos];
            DELTA_CHECK(index_in_range(trace, event));
            const auto i = static_cast<std::size_t>(event.index);
            const bool is_update =
                event.kind == workload::Event::Kind::kUpdate;
            const workload::Update* u = nullptr;
            std::uint32_t e = 0;
            EventTime now = 0;
            if (is_update) {
              u = &trace.updates[i];
              DELTA_CHECK_MSG(event.index == next_update,
                              "update event " << pos << " names update " << i
                                              << " where the merged order's "
                                                 "next update is "
                                              << next_update);
              ++next_update;
              // Object ids index the shards' prefilter gates; a hand-built
              // trace need not have been validated.
              DELTA_CHECK_MSG(u->object.value() >= 0 &&
                                  static_cast<std::size_t>(u->object.value()) <
                                      object_count,
                              "update " << i << " names object "
                                        << u->object.value() << " of "
                                        << object_count);
              now = u->time;
            } else {
              const workload::Query& q = trace.queries[i];
              // A worker silently skips queries routed out of range, so the
              // whole split is validated here.
              e = routing[i];
              DELTA_CHECK(e < endpoint_count);
              now = q.time;
              if (now >= warmup_end &&
                  (sketch_stride <= 1 ||
                   static_cast<std::int64_t>(i) % sketch_stride == 0)) {
                ++retained[e];
              }
              std::vector<std::uint8_t>& row = tapes.touch_rows[e];
              if (!row.empty()) {
                // Marked here, while the query record is in cache, so no
                // partition walks the routing table or the query records
                // for its touch set. Blocks mark one row concurrently: a
                // relaxed load first, so a byte already set is never
                // written again and its cache line is not bounced between
                // workers.
                for (const ObjectId o : q.objects) {
                  DELTA_CHECK_MSG(o.value() >= 0 &&
                                      static_cast<std::size_t>(o.value()) <
                                          object_count,
                                  "query " << i << " names object "
                                           << o.value() << " of "
                                           << object_count);
                  const std::atomic_ref<std::uint8_t> mark{
                      row[static_cast<std::size_t>(o.value())]};
                  if (mark.load(std::memory_order_relaxed) == 0) {
                    mark.store(1, std::memory_order_relaxed);
                  }
                }
              }
            }
            DELTA_CHECK_MSG(now >= previous,
                            "event " << pos << " at time " << now
                                     << " precedes the time " << previous
                                     << " of the event before");
            previous = now;
            double arrival =
                static_cast<double>(now) * options.seconds_per_event;
            if (block_arrivals != nullptr) {
              arrival = event_arrivals[pos] = block_arrivals->next();
            } else if (event_arrivals != nullptr) {
              arrival = event_arrivals[pos];
            }
            const auto position = static_cast<std::uint32_t>(pos);
            if (is_update) {
              column[i] = {arrival, u->cost.count(),
                           static_cast<std::uint32_t>(u->object.value()),
                           position};
              ++updates;
            } else {
              slots[cursor[e]++] = {arrival, static_cast<std::uint32_t>(i),
                                    position};
            }
          }
        }
        tallies[b] = {std::move(routed), std::move(retained), updates};
        if (b == 0) select_stops(tapes, options.series_stride);
      });

  // The blocks wrote update ids 0 .. update_count - 1, each once.
  tapes.routed_queries.assign(endpoint_count, 0);
  tapes.retained_samples.assign(endpoint_count, 0);
  for (const BlockTally& tally : tallies) {
    tapes.update_count += tally.updates;
    for (std::size_t e = 0; e < endpoint_count; ++e) {
      tapes.routed_queries[e] += tally.routed[e];
      tapes.retained_samples[e] += tally.retained[e];
    }
  }
  column[tapes.update_count] = {0.0, 0, 0, kEndOfTrace};
  return tapes;
}

}  // namespace delta::sim
