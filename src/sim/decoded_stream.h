// The event engine's shared replay stream (internal to sim/event_engine.cpp
// and its tests): the trace's merged order decoded once into 32-byte
// records every partition walks, plus the per-partition counts and touch
// rows the shards are sized and gated from.
//
// The decode runs as contiguous blocks of the merged order on
// util::parallel_for_blocks. Each block writes its own slice of one
// uninitialised buffer, counts its partitions' routed queries and links
// each routed query to the one kPrefetchLead routed queries later inside
// the block; a serial pass per partition then writes the links that cross
// a block boundary and sums the counts. The stream is therefore identical
// for every block count (pinned by sim_decode_test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "sim/event_engine.h"
#include "workload/trace.h"

namespace delta::sim {

/// Prefetch lookahead, in routed queries of one partition. A partition's
/// query records sit at irregular positions in trace.queries, out of the
/// hardware prefetcher's reach, so each query's decoded event names the
/// query this many routed queries later on the same partition, and the
/// partition prefetches that record when it dispatches.
inline constexpr std::size_t kPrefetchLead = 8;
inline constexpr std::uint32_t kNoQuery =
    std::numeric_limits<std::uint32_t>::max();

/// One event of the shared decoded replay stream: the merged-order record
/// every partition walks. Decoded once per run, in parallel blocks —
/// trace-order indirection, timestamp lookup, routing lookup and the
/// arrival-instant conversion are paid once instead of once per partition,
/// and updates enter the replicas through the trusted by-index ingest (the
/// identity of a trace entry with itself needs no per-replica validation).
/// Trivially default-constructible, so the stream buffer is allocated
/// without a serial zero-fill and first touched by the block that decodes
/// into it; the decode writes every field.
struct DecodedEvent {
  double arrival;   // now * seconds_per_event, partition-clock units
  EventTime now;
  std::uint32_t index;  // into trace.queries or trace.updates
  union {
    std::uint32_t object;    // an update's object (the prefilter's key)
    std::uint32_t endpoint;  // a query's routed partition
  };
  /// A query's lookahead (see kPrefetchLead), or kNoQuery.
  std::uint32_t prefetch;
  bool is_update;
};
static_assert(sizeof(DecodedEvent) == 32, "one event per half cache line");
static_assert(std::is_trivially_default_constructible_v<DecodedEvent>);

/// The decoded stream plus every count and touch row the shards are sized
/// and gated from, all read off the same pass over the trace.
struct DecodedStream {
  std::unique_ptr<DecodedEvent[]> events;
  std::size_t event_count = 0;
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

  [[nodiscard]] std::span<const DecodedEvent> view() const {
    return {events.get(), event_count};
  }
};

/// Decodes the trace's merged order in `blocks` contiguous blocks (see the
/// file comment), validating every event — trace indices, routing values
/// below prefilters.size() (the endpoint count), object ids below the
/// object table — and throwing on the first bad one in trace order. Touch
/// rows are built for the partitions whose `prefilters` entry is set.
/// Open-loop arrival instants come from one sequential ArrivalProcess
/// stream, so they too are independent of `blocks`.
[[nodiscard]] DecodedStream decode_stream(
    const workload::Trace& trace, const std::vector<std::uint32_t>& routing,
    const std::vector<bool>& prefilters, std::int64_t sketch_stride,
    const EventEngineOptions& options, std::size_t blocks);

}  // namespace delta::sim
