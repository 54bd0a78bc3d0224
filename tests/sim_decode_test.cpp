// The event engine's decode pass (sim/decoded_stream.h) runs as contiguous
// blocks of the merged order, and must yield the same stream for every
// block count: every field of every event, the per-partition routed and
// retained counts, and the touch rows. Prefetch links never change a
// simulation result, so this suite is the only place a stitching bug at a
// block boundary would show. The traces are small, so forcing up to eight
// blocks gives blocks that route fewer than kPrefetchLead queries (or
// none) to some partitions.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/decoded_stream.h"
#include "trace_builder.h"
#include "util/rng.h"
#include "workload/arrival_process.h"

namespace delta::sim {
namespace {

constexpr std::size_t kMaxBlocks = 8;

/// A random trace over `object_count` objects: `events` events, a
/// `query_share` of them queries naming one to three adjacent objects.
workload::Trace random_trace(util::Rng& rng, std::size_t object_count,
                             std::int64_t events, double query_share,
                             EventTime warmup_end) {
  std::vector<std::int64_t> sizes(object_count, 4096);
  delta::testing::TraceBuilder builder{sizes};
  const auto last = static_cast<std::int64_t>(object_count) - 1;
  for (std::int64_t e = 0; e < events; ++e) {
    if (rng.bernoulli(query_share)) {
      const std::int64_t first = rng.uniform_int(0, last);
      const std::int64_t span =
          rng.uniform_int(1, std::min<std::int64_t>(3, last - first + 1));
      std::vector<std::int64_t> objects;
      for (std::int64_t o = first; o < first + span; ++o) objects.push_back(o);
      builder.query(objects, 100);
    } else {
      builder.update(rng.uniform_int(0, last), 100);
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
/// every 40th query (fewer than kPrefetchLead per block at kMaxBlocks
/// blocks), partition 2 never, and partition 3 on the first 5 queries
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

void expect_streams_equal(const DecodedStream& got,
                          const DecodedStream& want) {
  ASSERT_EQ(got.event_count, want.event_count);
  for (std::size_t pos = 0; pos < want.event_count; ++pos) {
    SCOPED_TRACE(::testing::Message() << "event " << pos);
    const DecodedEvent& g = got.events[pos];
    const DecodedEvent& w = want.events[pos];
    ASSERT_EQ(g.is_update, w.is_update);
    EXPECT_EQ(g.arrival, w.arrival);
    EXPECT_EQ(g.now, w.now);
    EXPECT_EQ(g.index, w.index);
    if (w.is_update) {
      EXPECT_EQ(g.object, w.object);
    } else {
      EXPECT_EQ(g.endpoint, w.endpoint);
    }
    EXPECT_EQ(g.prefetch, w.prefetch);
  }
  EXPECT_EQ(got.routed_queries, want.routed_queries);
  EXPECT_EQ(got.retained_samples, want.retained_samples);
  EXPECT_EQ(got.touch_rows, want.touch_rows);
}

/// The one-block stream against the definitions, independently of how the
/// decode computes them: each routed query's prefetch names the query
/// kPrefetchLead routed queries later on its partition, the counts are
/// the routing's, and each prefiltering row marks exactly its partition's
/// queried objects.
void expect_stream_matches_definition(
    const DecodedStream& stream, const workload::Trace& trace,
    const std::vector<std::uint32_t>& routing,
    const std::vector<bool>& prefilters, std::int64_t sketch_stride) {
  const std::size_t endpoints = prefilters.size();
  std::vector<std::vector<std::size_t>> positions(endpoints);
  std::vector<std::size_t> retained(endpoints, 0);
  std::vector<std::vector<std::uint8_t>> rows(endpoints);
  for (std::size_t e = 0; e < endpoints; ++e) {
    if (prefilters[e]) rows[e].assign(trace.initial_object_bytes.size(), 0);
  }
  for (std::size_t pos = 0; pos < trace.order.size(); ++pos) {
    const workload::Event& event = trace.order[pos];
    if (event.kind == workload::Event::Kind::kUpdate) continue;
    const auto i = static_cast<std::size_t>(event.index);
    const workload::Query& q = trace.queries[i];
    positions[routing[i]].push_back(pos);
    if (q.time >= trace.info.warmup_end_event &&
        static_cast<std::int64_t>(i) % sketch_stride == 0) {
      ++retained[routing[i]];
    }
    if (!rows[routing[i]].empty()) {
      for (const ObjectId o : q.objects) {
        rows[routing[i]][static_cast<std::size_t>(o.value())] = 1;
      }
    }
  }
  for (std::size_t e = 0; e < endpoints; ++e) {
    ASSERT_EQ(stream.routed_queries[e], positions[e].size());
    for (std::size_t k = 0; k < positions[e].size(); ++k) {
      const std::uint32_t want =
          k + kPrefetchLead < positions[e].size()
              ? stream.events[positions[e][k + kPrefetchLead]].index
              : kNoQuery;
      EXPECT_EQ(stream.events[positions[e][k]].prefetch, want)
          << "partition " << e << " query " << k;
    }
  }
  for (std::size_t pos = 0; pos < stream.event_count; ++pos) {
    if (stream.events[pos].is_update) {
      EXPECT_EQ(stream.events[pos].prefetch, kNoQuery);
    }
  }
  EXPECT_EQ(stream.retained_samples, retained);
  EXPECT_EQ(stream.touch_rows, rows);
}

/// Decodes at one block and at 2..kMaxBlocks blocks and expects the same
/// stream every time.
void expect_block_invariant(const workload::Trace& trace,
                            const std::vector<std::uint32_t>& routing,
                            const std::vector<bool>& prefilters,
                            std::int64_t sketch_stride,
                            const EventEngineOptions& options) {
  const DecodedStream one =
      decode_stream(trace, routing, prefilters, sketch_stride, options, 1);
  expect_stream_matches_definition(one, trace, routing, prefilters,
                                   sketch_stride);
  for (std::size_t blocks = 2; blocks <= kMaxBlocks; ++blocks) {
    SCOPED_TRACE(::testing::Message() << "blocks " << blocks);
    expect_streams_equal(decode_stream(trace, routing, prefilters,
                                       sketch_stride, options, blocks),
                         one);
  }
}

TEST(DecodeStreamTest, IdenticalForEveryBlockCountAcrossEndpointCounts) {
  util::Rng rng{20261020};
  for (const std::size_t endpoints : {1u, 4u, 16u}) {
    for (int iteration = 0; iteration < 5; ++iteration) {
      SCOPED_TRACE(::testing::Message()
                   << "endpoints " << endpoints << " iteration " << iteration);
      const workload::Trace trace =
          random_trace(rng, 40, rng.uniform_int(1, 1500), 0.6, 200);
      expect_block_invariant(trace, uniform_routing(rng, trace, endpoints),
                             alternate_prefilters(endpoints), 1,
                             EventEngineOptions{});
    }
  }
}

TEST(DecodeStreamTest, IdenticalForEveryBlockCountUnderSkewedRouting) {
  util::Rng rng{7};
  const workload::Trace trace = random_trace(rng, 30, 1200, 0.7, 100);
  const std::vector<std::uint32_t> routing = skewed_routing(trace);
  expect_block_invariant(trace, routing, alternate_prefilters(4), 1,
                         EventEngineOptions{});
  // The skew the test relies on: partition 2 routes nothing, partition 3
  // fewer than kPrefetchLead queries in all, and partition 1 more than
  // kPrefetchLead in all but fewer per block at kMaxBlocks blocks.
  const DecodedStream one = decode_stream(trace, routing,
                                          alternate_prefilters(4), 1,
                                          EventEngineOptions{}, 1);
  EXPECT_EQ(one.routed_queries[2], 0u);
  EXPECT_EQ(one.routed_queries[3], 5u);
  EXPECT_LT(one.routed_queries[1], kPrefetchLead * kMaxBlocks);
  EXPECT_GT(one.routed_queries[1], kPrefetchLead);
}

TEST(DecodeStreamTest, IdenticalForEveryBlockCountWithSketchStride) {
  util::Rng rng{11};
  const workload::Trace trace = random_trace(rng, 25, 900, 0.5, 300);
  for (const std::int64_t stride : {2, 3, 7}) {
    SCOPED_TRACE(::testing::Message() << "stride " << stride);
    expect_block_invariant(trace, uniform_routing(rng, trace, 4),
                           alternate_prefilters(4), stride,
                           EventEngineOptions{});
  }
}

TEST(DecodeStreamTest, IdenticalForEveryBlockCountInOpenLoop) {
  util::Rng rng{13};
  const workload::Trace trace = random_trace(rng, 30, 1000, 0.6, 100);
  for (const workload::ArrivalProcess::Kind kind :
       {workload::ArrivalProcess::Kind::kPoisson,
        workload::ArrivalProcess::Kind::kBursty}) {
    EventEngineOptions options;
    options.open_loop.enabled = true;
    options.open_loop.arrival = kind;
    options.open_loop.rate_per_sec = 500.0;
    expect_block_invariant(trace, uniform_routing(rng, trace, 4),
                           alternate_prefilters(4), 1, options);
    // The arrivals are the process's one sequential stream, in order.
    const DecodedStream stream =
        decode_stream(trace, uniform_routing(rng, trace, 4),
                      alternate_prefilters(4), 1, options, kMaxBlocks);
    workload::ArrivalProcess arrivals{kind, options.open_loop.rate_per_sec,
                                      options.open_loop.seed};
    for (std::size_t pos = 0; pos < stream.event_count; ++pos) {
      ASSERT_EQ(stream.events[pos].arrival, arrivals.next()) << pos;
    }
  }
}

TEST(DecodeStreamTest, ClosedLoopArrivalIsTheScaledTraceTime) {
  util::Rng rng{17};
  const workload::Trace trace = random_trace(rng, 10, 300, 0.5, 0);
  EventEngineOptions options;
  options.seconds_per_event = 0.25;
  const DecodedStream stream =
      decode_stream(trace, uniform_routing(rng, trace, 2),
                    alternate_prefilters(2), 1, options, 3);
  for (std::size_t pos = 0; pos < stream.event_count; ++pos) {
    EXPECT_EQ(stream.events[pos].arrival,
              static_cast<double>(stream.events[pos].now) * 0.25);
  }
}

TEST(DecodeStreamTest, EmptyTraceDecodesToAnEmptyStream) {
  const workload::Trace trace = delta::testing::TraceBuilder({4096}).build();
  for (std::size_t blocks = 1; blocks <= kMaxBlocks; ++blocks) {
    const DecodedStream stream = decode_stream(
        trace, {}, alternate_prefilters(2), 1, EventEngineOptions{}, blocks);
    EXPECT_EQ(stream.event_count, 0u);
    EXPECT_EQ(stream.routed_queries, (std::vector<std::size_t>{0, 0}));
  }
}

/// The message of the logic_error a decode throws, or "" when none.
std::string rejection(const workload::Trace& trace,
                      const std::vector<std::uint32_t>& routing,
                      std::size_t endpoints, std::size_t blocks) {
  try {
    (void)decode_stream(trace, routing, alternate_prefilters(endpoints), 1,
                        EventEngineOptions{}, blocks);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

// A bad event in the last block still throws at every block count, and
// with two bad events the first in trace order is the one reported, as the
// one-block decode reports it.
TEST(DecodeStreamTest, BadEventsInTheLastBlockAreRejected) {
  util::Rng rng{19};
  constexpr std::size_t kObjects = 12;
  const workload::Trace clean = random_trace(rng, kObjects, 800, 0.6, 0);
  const std::vector<std::uint32_t> routing = uniform_routing(rng, clean, 4);
  ASSERT_EQ(rejection(clean, routing, 4, kMaxBlocks), "");
  // The last query and the last update both sit in the last of kMaxBlocks.
  const std::size_t last_block = clean.order.size() * (kMaxBlocks - 1) /
                                 kMaxBlocks;
  for (const workload::Event::Kind kind :
       {workload::Event::Kind::kQuery, workload::Event::Kind::kUpdate}) {
    std::size_t last = 0;
    for (std::size_t pos = 0; pos < clean.order.size(); ++pos) {
      if (clean.order[pos].kind == kind) last = pos;
    }
    ASSERT_GE(last, last_block);
  }

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
  }
}

}  // namespace
}  // namespace delta::sim
