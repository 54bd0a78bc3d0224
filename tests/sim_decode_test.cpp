// The event engine's decode pass (sim/event_tapes.h) runs as contiguous
// blocks of the merged order and must yield, for every block count, the
// tapes a brute-force walk of the trace defines: the update column, each
// partition's query tape, the per-partition routed and retained counts, the
// touch rows and the stops. The stops are what lets a partition skip every
// event that is not its own, so they are checked against the definition
// the traffic ledger and util::CumulativeSeries imply when they observe
// every event: the series' sample points, the first event inside the
// measurement window and the last event. The traces are small, so forcing
// up to eight blocks of 7- or 64-event chunks gives chunks that route no
// query to some partitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_tapes.h"
#include "trace_builder.h"
#include "util/rng.h"
#include "util/timeseries.h"
#include "workload/arrival_process.h"

namespace delta::sim {
namespace {

constexpr std::size_t kMaxBlocks = 8;

/// A random trace over `object_count` objects: `events` events, a
/// `query_share` of them queries naming one to three adjacent objects.
/// Event times leave gaps: now and then a few unused ticks, rarely 2500.
workload::Trace random_trace(util::Rng& rng, std::size_t object_count,
                             std::int64_t events, double query_share,
                             EventTime warmup_end) {
  std::vector<std::int64_t> sizes(object_count, 4096);
  delta::testing::TraceBuilder builder{sizes};
  const auto last = static_cast<std::int64_t>(object_count) - 1;
  for (std::int64_t e = 0; e < events; ++e) {
    if (rng.bernoulli(0.1)) builder.pause(rng.uniform_int(1, 4));
    if (rng.bernoulli(0.002)) builder.pause(2500);
    if (rng.bernoulli(query_share)) {
      const std::int64_t first = rng.uniform_int(0, last);
      const std::int64_t span =
          rng.uniform_int(1, std::min<std::int64_t>(3, last - first + 1));
      std::vector<std::int64_t> objects;
      for (std::int64_t o = first; o < first + span; ++o) objects.push_back(o);
      builder.query(objects, 100);
    } else {
      builder.update(rng.uniform_int(0, last), 100 + e);
    }
  }
  return builder.build(warmup_end);
}

/// Uniform routing over `endpoints` partitions.
std::vector<std::uint32_t> uniform_routing(util::Rng& rng,
                                           const workload::Trace& trace,
                                           std::size_t endpoints) {
  std::vector<std::uint32_t> routing(trace.queries.size());
  for (std::uint32_t& e : routing) {
    e = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(endpoints) - 1));
  }
  return routing;
}

/// Skewed routing over four partitions: most queries on 0, partition 1 on
/// every 40th query (fewer than one per block at kMaxBlocks blocks in
/// places), partition 2 never, and partition 3 on the first 5 queries
/// only.
std::vector<std::uint32_t> skewed_routing(const workload::Trace& trace) {
  std::vector<std::uint32_t> routing(trace.queries.size(), 0);
  for (std::size_t i = 0; i < routing.size(); ++i) {
    if (i < 5) {
      routing[i] = 3;
    } else if (i % 40 == 0) {
      routing[i] = 1;
    }
  }
  return routing;
}

/// Every other partition prefilters, so both kinds of row appear.
std::vector<bool> alternate_prefilters(std::size_t endpoints) {
  std::vector<bool> prefilters(endpoints);
  for (std::size_t e = 0; e < endpoints; ++e) prefilters[e] = e % 2 == 0;
  return prefilters;
}

EventTime time_of(const workload::Trace& trace, std::size_t pos) {
  const workload::Event& event = trace.order[pos];
  const auto i = static_cast<std::size_t>(event.index);
  return event.kind == workload::Event::Kind::kUpdate ? trace.updates[i].time
                                                      : trace.queries[i].time;
}

/// Every event's arrival instant, drawn the way the engine defines it.
std::vector<double> arrivals_of(const workload::Trace& trace,
                                const EventEngineOptions& options) {
  std::vector<double> arrivals(trace.order.size());
  workload::ArrivalProcess process{options.open_loop.arrival,
                                   options.open_loop.rate_per_sec,
                                   options.open_loop.seed};
  for (std::size_t pos = 0; pos < arrivals.size(); ++pos) {
    arrivals[pos] = options.open_loop.enabled
                        ? process.next()
                        : static_cast<double>(time_of(trace, pos)) *
                              options.seconds_per_event;
  }
  return arrivals;
}

/// Everything the decode produces, as plain sequences: the column without
/// its sentinel, each partition's tape over all blocks, the stops without
/// their sentinel.
struct Flat {
  std::vector<UpdateSlot> column;
  std::vector<std::vector<QuerySlot>> tapes;
  std::vector<Stop> stops;
  std::vector<std::size_t> routed;
  std::vector<std::size_t> retained;
  std::vector<std::vector<std::uint8_t>> rows;
};

Flat flatten(const EventTapes& tapes) {
  Flat flat;
  flat.column.assign(tapes.updates, tapes.updates + tapes.update_count);
  EXPECT_EQ(tapes.updates[tapes.update_count].position, kEndOfTrace);
  flat.tapes.resize(tapes.endpoint_count);
  for (std::size_t c = 0; c < tapes.chunk_count(); ++c) {
    for (std::size_t e = 0; e < tapes.endpoint_count; ++e) {
      for (const QuerySlot& slot : tapes.tape(c, e)) {
        flat.tapes[e].push_back(slot);
      }
    }
  }
  EXPECT_FALSE(tapes.stops.empty());
  if (!tapes.stops.empty()) {
    EXPECT_EQ(tapes.stops.back().position, kEndOfTrace);
    flat.stops.assign(tapes.stops.begin(), tapes.stops.end() - 1);
  }
  flat.routed = tapes.routed_queries;
  flat.retained = tapes.retained_samples;
  flat.rows = tapes.touch_rows;
  return flat;
}

/// The definitions, by one walk over every event in trace order. A stop is
/// an event the series records a point at (util::CumulativeSeries fed
/// every event: the first at or past time 0, then the first at least
/// `series_stride` ticks past the last point), the first event at or past
/// the warm-up end (where TrafficLedger snapshots), or the last event.
Flat brute_force(const workload::Trace& trace,
                 const std::vector<std::uint32_t>& routing,
                 const std::vector<bool>& prefilters,
                 std::int64_t sketch_stride,
                 const EventEngineOptions& options) {
  const std::size_t endpoints = prefilters.size();
  const std::vector<double> arrivals = arrivals_of(trace, options);
  Flat want;
  want.tapes.resize(endpoints);
  want.routed.assign(endpoints, 0);
  want.retained.assign(endpoints, 0);
  want.rows.resize(endpoints);
  for (std::size_t e = 0; e < endpoints; ++e) {
    if (prefilters[e]) want.rows[e].assign(trace.initial_object_bytes.size(), 0);
  }
  EventTime next_sample = 0;
  bool window_open = false;
  for (std::size_t pos = 0; pos < trace.order.size(); ++pos) {
    const workload::Event& event = trace.order[pos];
    const auto i = static_cast<std::size_t>(event.index);
    const auto position = static_cast<std::uint32_t>(pos);
    const EventTime now = time_of(trace, pos);
    if (event.kind == workload::Event::Kind::kUpdate) {
      const workload::Update& u = trace.updates[i];
      want.column.push_back({arrivals[pos], u.cost.count(),
                             static_cast<std::uint32_t>(u.object.value()),
                             position});
    } else {
      const std::uint32_t e = routing[i];
      want.tapes[e].push_back(
          {arrivals[pos], static_cast<std::uint32_t>(i), position});
      ++want.routed[e];
      if (now >= trace.info.warmup_end_event &&
          static_cast<std::int64_t>(i) % sketch_stride == 0) {
        ++want.retained[e];
      }
      if (!want.rows[e].empty()) {
        for (const ObjectId o : trace.queries[i].objects) {
          want.rows[e][static_cast<std::size_t>(o.value())] = 1;
        }
      }
    }
    bool stop = pos + 1 == trace.order.size();
    if (now >= next_sample) {
      next_sample = now + options.series_stride;
      stop = true;
    }
    if (!window_open && now >= trace.info.warmup_end_event) {
      window_open = true;
      stop = true;
    }
    if (stop) want.stops.push_back({arrivals[pos], now, position});
  }
  return want;
}

void expect_flat_equal(const Flat& got, const Flat& want) {
  ASSERT_EQ(got.column.size(), want.column.size());
  for (std::size_t k = 0; k < want.column.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "update " << k);
    EXPECT_EQ(got.column[k].arrival, want.column[k].arrival);
    EXPECT_EQ(got.column[k].cost, want.column[k].cost);
    EXPECT_EQ(got.column[k].object, want.column[k].object);
    EXPECT_EQ(got.column[k].position, want.column[k].position);
  }
  ASSERT_EQ(got.tapes.size(), want.tapes.size());
  for (std::size_t e = 0; e < want.tapes.size(); ++e) {
    ASSERT_EQ(got.tapes[e].size(), want.tapes[e].size()) << "partition " << e;
    for (std::size_t k = 0; k < want.tapes[e].size(); ++k) {
      SCOPED_TRACE(::testing::Message() << "partition " << e << " query " << k);
      EXPECT_EQ(got.tapes[e][k].arrival, want.tapes[e][k].arrival);
      EXPECT_EQ(got.tapes[e][k].index, want.tapes[e][k].index);
      EXPECT_EQ(got.tapes[e][k].position, want.tapes[e][k].position);
    }
  }
  ASSERT_EQ(got.stops.size(), want.stops.size());
  for (std::size_t k = 0; k < want.stops.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "stop " << k);
    EXPECT_EQ(got.stops[k].arrival, want.stops[k].arrival);
    EXPECT_EQ(got.stops[k].now, want.stops[k].now);
    EXPECT_EQ(got.stops[k].position, want.stops[k].position);
  }
  EXPECT_EQ(got.routed, want.routed);
  EXPECT_EQ(got.retained, want.retained);
  EXPECT_EQ(got.rows, want.rows);
}

/// Decodes in one block of one chunk (these traces are shorter than
/// kTapeChunkEvents), and at 1..kMaxBlocks blocks of 7- and 64-event
/// chunks, and expects the definitions every time.
void expect_tapes_match(const workload::Trace& trace,
                        const std::vector<std::uint32_t>& routing,
                        const std::vector<bool>& prefilters,
                        std::int64_t sketch_stride,
                        const EventEngineOptions& options) {
  const Flat want =
      brute_force(trace, routing, prefilters, sketch_stride, options);
  expect_flat_equal(
      flatten(decode_tapes(trace, routing, prefilters, sketch_stride, options,
                           1)),
      want);
  for (const std::size_t chunk : {7u, 64u}) {
    for (std::size_t blocks = 1; blocks <= kMaxBlocks; ++blocks) {
      SCOPED_TRACE(::testing::Message()
                   << "blocks " << blocks << " of " << chunk << "-event chunks");
      const EventTapes tapes = decode_tapes(
          trace, routing, prefilters, sketch_stride, options, blocks, chunk);
      ASSERT_EQ(tapes.chunk_count(), (trace.order.size() + chunk - 1) / chunk);
      expect_flat_equal(flatten(tapes), want);
    }
  }
}

/// The time of the middle update event, or of the first query event after
/// the middle, of `trace`.
EventTime middle_event_time(const workload::Trace& trace,
                            workload::Event::Kind kind) {
  for (std::size_t pos = trace.order.size() / 2; pos < trace.order.size();
       ++pos) {
    if (trace.order[pos].kind == kind) return time_of(trace, pos);
  }
  return 0;
}

// The stops across series strides (every event, a few events, the
// benchmark's 2000 ticks, more ticks than the trace spans) and warm-up
// boundaries (event 0, an update, a query routed to one partition and so
// foreign to the others, the last event, past the end, and inside a gap),
// at N = 1, 4 and 16, for every block count.
TEST(DecodeTapesTest, StopsAndTapesMatchTheDefinitionsForEveryBlockCount) {
  util::Rng rng{20261020};
  for (const std::size_t endpoints : {1u, 4u, 16u}) {
    for (int iteration = 0; iteration < 3; ++iteration) {
      SCOPED_TRACE(::testing::Message()
                   << "endpoints " << endpoints << " iteration " << iteration);
      workload::Trace trace =
          random_trace(rng, 40, rng.uniform_int(1, 1500), 0.6, 0);
      const std::vector<std::uint32_t> routing =
          uniform_routing(rng, trace, endpoints);
      const std::vector<bool> prefilters = alternate_prefilters(endpoints);
      const EventTime last = time_of(trace, trace.order.size() - 1);
      trace.info.warmup_end_event =
          middle_event_time(trace, workload::Event::Kind::kUpdate);
      for (const std::int64_t stride : {std::int64_t{1}, std::int64_t{3},
                                        std::int64_t{2000}, last + 7}) {
        SCOPED_TRACE(::testing::Message() << "series stride " << stride);
        EventEngineOptions options;
        options.series_stride = stride;
        expect_tapes_match(trace, routing, prefilters, 1, options);
      }
      EventEngineOptions options;
      options.series_stride = 3;
      for (const EventTime warmup :
           {EventTime{0}, middle_event_time(trace, workload::Event::Kind::kQuery),
            last, last + 1, last / 3 * 2 + 1}) {
        SCOPED_TRACE(::testing::Message() << "warm-up end " << warmup);
        trace.info.warmup_end_event = warmup;
        expect_tapes_match(trace, routing, prefilters, 1, options);
      }
    }
  }
}

// A trace whose times jump past whole strides: each jump is a sample, and
// the warm-up end inside a gap lands on the first event after it.
TEST(DecodeTapesTest, StopsFollowEventTimesAcrossGaps) {
  delta::testing::TraceBuilder builder{{4096, 4096}};
  builder.query({0}, 100).update(1, 200).pause(5000).query({1}, 100);
  builder.update(0, 300).pause(1).update(1, 400).pause(2500).query({0, 1}, 100);
  const workload::Trace trace = builder.build(/*warmup_end=*/3000);
  const std::vector<std::uint32_t> routing{0, 1, 1};
  EventEngineOptions options;
  options.series_stride = 2000;
  expect_tapes_match(trace, routing, alternate_prefilters(2), 1, options);
  const EventTapes tapes = decode_tapes(trace, routing, alternate_prefilters(2),
                                        1, options, 1);
  // Samples at events 0, 2 (time 5002) and 5 (time 7506); the warm-up
  // boundary is event 2 too; the last event is 5.
  std::vector<std::uint32_t> positions;
  for (const Stop& stop : tapes.stops) positions.push_back(stop.position);
  EXPECT_EQ(positions, (std::vector<std::uint32_t>{0, 2, 5, kEndOfTrace}));
}

// Observing a cumulative series at the stops alone records the same points
// as observing it at every event, whatever the observed values are.
TEST(DecodeTapesTest, StopsRecordTheSeriesOfEveryEvent) {
  util::Rng rng{23};
  for (const std::int64_t stride : {1, 3, 50, 2000}) {
    SCOPED_TRACE(::testing::Message() << "series stride " << stride);
    const workload::Trace trace = random_trace(rng, 20, 1200, 0.5, 300);
    EventEngineOptions options;
    options.series_stride = stride;
    const EventTapes tapes =
        decode_tapes(trace, uniform_routing(rng, trace, 3),
                     alternate_prefilters(3), 1, options, 5,
                     /*chunk_events=*/16);
    util::CumulativeSeries every{stride};
    for (std::size_t pos = 0; pos < trace.order.size(); ++pos) {
      every.observe(time_of(trace, pos), static_cast<double>(pos));
    }
    util::CumulativeSeries stops{stride};
    for (const Stop& stop : tapes.stops) {
      if (stop.position == kEndOfTrace) break;
      stops.observe(stop.now, static_cast<double>(stop.position));
    }
    every.finalize();
    stops.finalize();
    ASSERT_EQ(stops.points().size(), every.points().size());
    for (std::size_t k = 0; k < every.points().size(); ++k) {
      EXPECT_EQ(stops.points()[k].event_index, every.points()[k].event_index);
      EXPECT_EQ(stops.points()[k].value, every.points()[k].value);
    }
  }
}

// A partition that routes nothing has an empty tape in every block, and a
// partition that routes a handful has blocks where it routes none.
TEST(DecodeTapesTest, SkewedRoutingLeavesEmptyTapes) {
  util::Rng rng{7};
  const workload::Trace trace = random_trace(rng, 30, 1200, 0.7, 100);
  const std::vector<std::uint32_t> routing = skewed_routing(trace);
  expect_tapes_match(trace, routing, alternate_prefilters(4), 1,
                     EventEngineOptions{});
  const EventTapes tapes =
      decode_tapes(trace, routing, alternate_prefilters(4), 1,
                   EventEngineOptions{}, kMaxBlocks, /*chunk_events=*/64);
  EXPECT_EQ(tapes.routed_queries[2], 0u);
  EXPECT_EQ(tapes.routed_queries[3], 5u);
  for (std::size_t c = 0; c < tapes.chunk_count(); ++c) {
    EXPECT_TRUE(tapes.tape(c, 2).empty());
  }
  EXPECT_TRUE(tapes.tape(tapes.chunk_count() - 1, 3).empty());
}

TEST(DecodeTapesTest, RetainedCountsFollowTheSketchStride) {
  util::Rng rng{11};
  const workload::Trace trace = random_trace(rng, 25, 900, 0.5, 300);
  for (const std::int64_t stride : {2, 3, 7}) {
    SCOPED_TRACE(::testing::Message() << "sketch stride " << stride);
    expect_tapes_match(trace, uniform_routing(rng, trace, 4),
                       alternate_prefilters(4), stride, EventEngineOptions{});
  }
}

// Open loop: every arrival is the process's one sequential stream, in trace
// order, in the column, the tapes and the stops alike.
TEST(DecodeTapesTest, OpenLoopArrivalsAreOneSequentialStream) {
  util::Rng rng{13};
  const workload::Trace trace = random_trace(rng, 30, 1000, 0.6, 100);
  for (const workload::ArrivalProcess::Kind kind :
       {workload::ArrivalProcess::Kind::kPoisson,
        workload::ArrivalProcess::Kind::kBursty}) {
    EventEngineOptions options;
    options.open_loop.enabled = true;
    options.open_loop.arrival = kind;
    options.open_loop.rate_per_sec = 500.0;
    options.series_stride = 40;
    expect_tapes_match(trace, uniform_routing(rng, trace, 4),
                       alternate_prefilters(4), 1, options);
  }
}

// A wake stop may fall on any event, a foreign query included: arrival_at
// reads any event's arrival.
TEST(DecodeTapesTest, ArrivalAtReadsEveryEvent) {
  util::Rng rng{17};
  const workload::Trace trace = random_trace(rng, 10, 300, 0.5, 0);
  for (const bool open_loop : {false, true}) {
    SCOPED_TRACE(open_loop ? "open loop" : "closed loop");
    EventEngineOptions options;
    options.seconds_per_event = 0.25;
    options.open_loop.enabled = open_loop;
    const std::vector<double> arrivals = arrivals_of(trace, options);
    for (const std::size_t blocks : {1u, 3u}) {
      const EventTapes tapes =
          decode_tapes(trace, uniform_routing(rng, trace, 2),
                       alternate_prefilters(2), 1, options, blocks,
                       /*chunk_events=*/16);
      for (std::size_t pos = 0; pos < trace.order.size(); ++pos) {
        EXPECT_EQ(tapes.arrival_at(pos), arrivals[pos]) << pos;
      }
    }
  }
}

// Wake stops, against the definition: one at the first event arriving at
// or after each instant (none past the last arrival), merged into a shared
// stop at the same event, which keeps sampling the ledger; the rest do
// not sample. In position order, one per event, then the sentinel.
TEST(DecodeTapesTest, WakeStopsLandOnTheFirstArrivalAtOrAfterEachInstant) {
  util::Rng rng{23};
  const workload::Trace trace = random_trace(rng, 10, 300, 0.5, 0);
  for (const bool open_loop : {false, true}) {
    SCOPED_TRACE(open_loop ? "open loop" : "closed loop");
    EventEngineOptions options;
    options.seconds_per_event = 0.25;
    options.series_stride = 40;
    options.open_loop.enabled = open_loop;
    const std::vector<double> arrivals = arrivals_of(trace, options);
    const EventTapes tapes =
        decode_tapes(trace, uniform_routing(rng, trace, 2),
                     alternate_prefilters(2), 1, options, 1);
    const std::size_t shared = tapes.stops.front().position;
    const std::vector<double> wakes = {
        arrivals[7],  arrivals[7],         (arrivals[40] + arrivals[41]) / 2,
        -1.0,         arrivals[shared],    arrivals.back(),
        arrivals[3],  arrivals.back() + 1.0};
    const std::vector<Stop> stops = with_wake_stops(tapes, wakes);

    std::vector<bool> want(trace.order.size(), false);
    std::vector<bool> samples(trace.order.size(), false);
    for (std::size_t k = 0; k + 1 < tapes.stops.size(); ++k) {
      want[tapes.stops[k].position] = true;
      samples[tapes.stops[k].position] = true;
    }
    for (const double at : wakes) {
      for (std::size_t pos = 0; pos < arrivals.size(); ++pos) {
        if (arrivals[pos] >= at) {
          want[pos] = true;
          break;
        }
      }
    }
    ASSERT_FALSE(stops.empty());
    EXPECT_EQ(stops.back().position, kEndOfTrace);
    std::size_t k = 0;
    for (std::size_t pos = 0; pos < want.size(); ++pos) {
      if (!want[pos]) continue;
      SCOPED_TRACE(::testing::Message() << "position " << pos);
      ASSERT_LT(k + 1, stops.size());
      EXPECT_EQ(stops[k].position, pos);
      EXPECT_EQ(stops[k].arrival, arrivals[pos]);
      EXPECT_EQ(stops[k].now, time_of(trace, pos));
      EXPECT_EQ(stops[k].samples_ledger, samples[pos]);
      ++k;
    }
    EXPECT_EQ(k + 1, stops.size());
  }
}

TEST(DecodeTapesTest, EmptyTraceDecodesToSentinels) {
  const workload::Trace trace = delta::testing::TraceBuilder({4096}).build();
  for (std::size_t blocks = 1; blocks <= kMaxBlocks; ++blocks) {
    const EventTapes tapes = decode_tapes(
        trace, {}, alternate_prefilters(2), 1, EventEngineOptions{}, blocks);
    EXPECT_EQ(tapes.update_count, 0u);
    EXPECT_EQ(tapes.updates[0].position, kEndOfTrace);
    ASSERT_EQ(tapes.stops.size(), 1u);
    EXPECT_EQ(tapes.stops[0].position, kEndOfTrace);
    EXPECT_EQ(tapes.routed_queries, (std::vector<std::size_t>{0, 0}));
  }
}

/// The message of the logic_error a decode throws, or "" when none.
std::string rejection(const workload::Trace& trace,
                      const std::vector<std::uint32_t>& routing,
                      std::size_t endpoints, std::size_t blocks) {
  try {
    (void)decode_tapes(trace, routing, alternate_prefilters(endpoints), 1,
                       EventEngineOptions{}, blocks, /*chunk_events=*/16);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

/// The position of the last event of `kind` in `trace`.
std::size_t last_of(const workload::Trace& trace, workload::Event::Kind kind) {
  std::size_t last = 0;
  for (std::size_t pos = 0; pos < trace.order.size(); ++pos) {
    if (trace.order[pos].kind == kind) last = pos;
  }
  return last;
}

// A bad event in the last block still throws at every block count, and
// with two bad events the first in trace order is the one reported, as the
// one-block decode reports it.
TEST(DecodeTapesTest, BadEventsInTheLastBlockAreRejected) {
  util::Rng rng{19};
  constexpr std::size_t kObjects = 12;
  const workload::Trace clean = random_trace(rng, kObjects, 800, 0.6, 0);
  const std::vector<std::uint32_t> routing = uniform_routing(rng, clean, 4);
  ASSERT_EQ(rejection(clean, routing, 4, kMaxBlocks), "");
  // The last query and the last update both sit in the last of kMaxBlocks.
  const std::size_t last_block = clean.order.size() * (kMaxBlocks - 1) /
                                 kMaxBlocks;
  ASSERT_GE(last_of(clean, workload::Event::Kind::kQuery), last_block);
  ASSERT_GE(last_of(clean, workload::Event::Kind::kUpdate), last_block);

  // A routing value past the endpoint count on the last query.
  std::vector<std::uint32_t> bad_routing = routing;
  bad_routing.back() = 4;
  // An object id past the object table on the last update, and on an
  // update in the trace's middle.
  workload::Trace bad_update = clean;
  bad_update.updates.back().object = ObjectId{kObjects};
  workload::Trace two_bad_updates = bad_update;
  const std::size_t middle = two_bad_updates.updates.size() / 2;
  two_bad_updates.updates[middle].object = ObjectId{kObjects + 5};
  // An object id past the object table in the last query (it is routed to
  // partition 0 or 2 to reach a prefiltering partition's row).
  workload::Trace bad_query = clean;
  bad_query.queries.back().objects.push_back(ObjectId{kObjects + 1});
  std::vector<std::uint32_t> to_row = routing;
  to_row.back() = 0;
  // A bad object on the middle update before a bad routing value on the
  // last query: the object is reported.
  workload::Trace middle_bad = clean;
  middle_bad.updates[middle].object = ObjectId{kObjects + 5};

  const std::string update_message =
      "update " + std::to_string(clean.updates.size() - 1) + " names object " +
      std::to_string(kObjects) + " of " + std::to_string(kObjects);
  const std::string middle_message =
      "update " + std::to_string(middle) + " names object " +
      std::to_string(kObjects + 5) + " of " + std::to_string(kObjects);
  const std::string query_message =
      "query " + std::to_string(clean.queries.size() - 1) + " names object " +
      std::to_string(kObjects + 1) + " of " + std::to_string(kObjects);
  for (std::size_t blocks = 1; blocks <= kMaxBlocks; ++blocks) {
    SCOPED_TRACE(::testing::Message() << "blocks " << blocks);
    EXPECT_NE(rejection(clean, bad_routing, 4, blocks), "");
    EXPECT_NE(rejection(bad_update, routing, 4, blocks).find(update_message),
              std::string::npos);
    EXPECT_NE(
        rejection(two_bad_updates, routing, 4, blocks).find(middle_message),
        std::string::npos);
    EXPECT_NE(rejection(bad_query, to_row, 4, blocks).find(query_message),
              std::string::npos);
    EXPECT_NE(rejection(middle_bad, bad_routing, 4, blocks).find(middle_message),
              std::string::npos);
  }
}

// The column is indexed by update id and walked in trace order, so update
// events out of id order are rejected, as are event times that go back.
TEST(DecodeTapesTest, UpdatesOutOfIdOrderAndTimesThatGoBackAreRejected) {
  util::Rng rng{29};
  const workload::Trace clean = random_trace(rng, 12, 800, 0.5, 0);
  const std::vector<std::uint32_t> routing = uniform_routing(rng, clean, 4);
  // Swap the ids of the last two update events.
  workload::Trace swapped = clean;
  std::vector<std::size_t> update_positions;
  for (std::size_t pos = 0; pos < swapped.order.size(); ++pos) {
    if (swapped.order[pos].kind == workload::Event::Kind::kUpdate) {
      update_positions.push_back(pos);
    }
  }
  ASSERT_GE(update_positions.size(), 2u);
  const std::size_t a = update_positions[update_positions.size() - 2];
  const std::size_t b = update_positions.back();
  std::swap(swapped.order[a], swapped.order[b]);
  const std::string swap_message =
      "update event " + std::to_string(a) + " names update " +
      std::to_string(clean.order[b].index);
  // The last query's time set before its predecessor's.
  workload::Trace backwards = clean;
  const std::size_t q = last_of(clean, workload::Event::Kind::kQuery);
  ASSERT_GT(q, 0u);
  backwards.queries[static_cast<std::size_t>(clean.order[q].index)].time =
      time_of(clean, q - 1) - 1;
  const std::string time_message = "event " + std::to_string(q) + " at time";
  for (std::size_t blocks = 1; blocks <= kMaxBlocks; ++blocks) {
    SCOPED_TRACE(::testing::Message() << "blocks " << blocks);
    EXPECT_NE(rejection(swapped, routing, 4, blocks).find(swap_message),
              std::string::npos);
    EXPECT_NE(rejection(backwards, routing, 4, blocks).find(time_message),
              std::string::npos);
  }
}

}  // namespace
}  // namespace delta::sim
