// The event engine's replay input (internal to sim/event_engine.cpp and its
// tests), built by one pass over the trace's merged order:
//
//   * the update column, shared by every partition: one 24-byte slot per
//     update event, indexed by update id (which the decode checks is the
//     update's rank in the merged order), holding what an ingest reads;
//   * one query tape per partition, holding only the queries routed there,
//     16 bytes each;
//   * the stops: the few events every partition stops at whether or not
//     they are its own — the cumulative series' sample points, the warm-up
//     boundary and the last event.
//
// A partition merge-walks its tape, the stops and the column by trace
// position (sim/event_engine.cpp) and never reads a foreign query.
//
// The decode runs as contiguous blocks of the merged order on
// util::parallel_for_blocks, in one launch; a block is a run of whole
// chunks of kTapeChunkEvents events. The query slots are one never-zeroed
// buffer of one slot per event: for each chunk, its block first counts
// the chunk's routed queries per partition, then writes them grouped by
// partition into the head of the chunk's range, so partition e's tape is
// one span per chunk, read in chunk order. Block 0 then finds the stops
// by a galloping search over the event times. The tapes, the column and
// the stops therefore do not depend on the block count (pinned by
// sim_decode_test).
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
/// hardware prefetcher's reach, so a partition prefetches the record of
/// the query this many slots further along its tape when it dispatches.
inline constexpr std::size_t kPrefetchLead = 8;
inline constexpr std::uint32_t kNoQuery =
    std::numeric_limits<std::uint32_t>::max();
/// Events per decode chunk. A chunk's order entries and routing values
/// (~160 KiB) stay in the CPU cache between its count and write passes;
/// a tape's prefetch lookahead stops at a chunk's end, which on a trace
/// of half queries still leaves ~128 queries per span at N = 64.
inline constexpr std::size_t kTapeChunkEvents = std::size_t{1} << 14;
/// The trace position past every event: the sentinel that ends the
/// column, each tape and the stops, so a merge needs no bounds checks.
inline constexpr std::uint32_t kEndOfTrace =
    std::numeric_limits<std::uint32_t>::max();

/// One update of the shared column. The arrival is in partition-clock
/// units (now * seconds_per_event, or the open-loop arrival instant).
/// Trivially default-constructible, like the other slots, so the buffers
/// are allocated without a serial zero-fill and first touched by the block
/// that decodes into them; the decode writes every field.
struct UpdateSlot {
  double arrival;
  std::int64_t cost;  // bytes
  std::uint32_t object;
  std::uint32_t position;  // in trace.order
};
static_assert(sizeof(UpdateSlot) == 24);
static_assert(std::is_trivially_default_constructible_v<UpdateSlot>);

/// One query of a partition's tape. Its trace time is the record's.
struct QuerySlot {
  double arrival;
  std::uint32_t index;     // into trace.queries
  std::uint32_t position;  // in trace.order
};
static_assert(sizeof(QuerySlot) == 16);
static_assert(std::is_trivially_default_constructible_v<QuerySlot>);

/// An event a partition stops at even when it is not its own.
struct Stop {
  double arrival;
  EventTime now;
  std::uint32_t position;  // in trace.order, or kEndOfTrace
  /// False for a wake stop (see with_wake_stops), which only moves the
  /// partition's clock to the event's arrival.
  bool samples_ledger = true;
};

struct EventTapes {
  const workload::Trace* trace = nullptr;
  std::size_t endpoint_count = 0;
  /// One allocation for the column, the query slots and the open-loop
  /// arrivals, never zeroed. One, not three, so that once a run has freed
  /// it the allocator hands the next run the same pages: glibc's dynamic
  /// threshold serves a block from its heap once one of that size has been
  /// freed, and trims the heap only past twice that size.
  std::unique_ptr<std::byte[]> storage;
  /// The update column, update_count slots plus a sentinel slot whose
  /// position is kEndOfTrace.
  UpdateSlot* updates = nullptr;
  std::size_t update_count = 0;
  /// The query slots: one per event (see the file comment).
  QuerySlot* queries = nullptr;
  /// Chunk c's group of partition e is queries[groups[c * (N + 1) + e],
  /// groups[c * (N + 1) + e + 1]), N the endpoint count.
  std::vector<std::uint32_t> groups;
  /// Series samples, warm-up boundary and last event, in trace order, then
  /// a sentinel at kEndOfTrace.
  std::vector<Stop> stops;
  /// Open loop: every event's arrival instant, from one sequential
  /// ArrivalProcess stream. Null in the closed loop, whose arrival is the
  /// trace time times seconds_per_event.
  double* arrivals = nullptr;
  double seconds_per_event = 0.0;
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

  [[nodiscard]] std::size_t chunk_count() const {
    return groups.size() / (endpoint_count + 1);
  }
  /// Partition `endpoint`'s routed queries in chunk `chunk`, in trace
  /// order.
  [[nodiscard]] std::span<const QuerySlot> tape(std::size_t chunk,
                                                std::size_t endpoint) const {
    const std::uint32_t* group = &groups[chunk * (endpoint_count + 1)];
    return {queries + group[endpoint], queries + group[endpoint + 1]};
  }
  /// The arrival of the event at `position`. Read only at set-up, to place
  /// the stops and wake stops; the replay reads arrivals off its tape, the
  /// column and the stops.
  [[nodiscard]] double arrival_at(std::size_t position) const {
    return arrivals != nullptr ? arrivals[position]
                               : closed_loop_arrival(position);
  }
  /// The trace time of the event at `position` times seconds_per_event.
  [[nodiscard]] double closed_loop_arrival(std::size_t position) const;
};

/// Decodes the trace's merged order in `blocks` contiguous blocks of
/// chunks of `chunk_events` events (see the file comment; tests pick small
/// chunks to get many on a small trace), validating every event — trace
/// indices, routing values below prefilters.size() (the endpoint count),
/// object ids below the object table, update events in id order,
/// nondecreasing event times — and throwing on the first bad one in trace
/// order. Touch rows are built for the partitions whose `prefilters` entry
/// is set. The stops sample every options.series_stride ticks of event
/// time, as util::CumulativeSeries does when it observes every event.
[[nodiscard]] EventTapes decode_tapes(
    const workload::Trace& trace, const std::vector<std::uint32_t>& routing,
    const std::vector<bool>& prefilters, std::int64_t sketch_stride,
    const EventEngineOptions& options, std::size_t blocks,
    std::size_t chunk_events = kTapeChunkEvents);

/// The tapes' stops plus one wake stop per instant in `wakes`, at the first
/// event whose arrival is at or past it (none when no event's is). A wake
/// stop that falls on a shared stop merges into it; the others do not
/// sample the traffic ledger. Ends with the stops' sentinel.
[[nodiscard]] std::vector<Stop> with_wake_stops(const EventTapes& tapes,
                                                std::span<const double> wakes);

}  // namespace delta::sim
