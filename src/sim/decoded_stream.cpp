#include "sim/decoded_stream.h"

#include <algorithm>
#include <array>
#include <atomic>

#include "util/check.h"
#include "util/thread_pool.h"
#include "workload/arrival_process.h"

namespace delta::sim {

namespace {

/// What one decode block leaves for the serial stitch, per partition.
struct BlockTally {
  std::vector<std::size_t> routed;
  std::vector<std::size_t> retained;
  /// Stream positions of the block's first kPrefetchLead routed queries of
  /// each partition, in order (only the first min(routed, lead) are set).
  std::vector<std::uint32_t> head;
  /// Stream positions of its last kPrefetchLead routed queries: a ring
  /// indexed by the block's routed count of the partition so far.
  std::vector<std::uint32_t> tail;
};

}  // namespace

DecodedStream decode_stream(const workload::Trace& trace,
                            const std::vector<std::uint32_t>& routing,
                            const std::vector<bool>& prefilters,
                            std::int64_t sketch_stride,
                            const EventEngineOptions& options,
                            std::size_t blocks) {
  DELTA_CHECK(blocks > 0);
  // Open loop: arrival instants come from the ArrivalProcess schedule (the
  // trace's merged ORDER is untouched), drawn from one sequential stream —
  // every partition walks the identical tape, so results stay bit-identical
  // for any thread count. One block draws them as it decodes, which spares
  // the single-thread path a second pass over the stream; several blocks
  // leave them to a serial pass after the join.
  std::unique_ptr<workload::ArrivalProcess> arrivals;
  if (options.open_loop.enabled) {
    arrivals = std::make_unique<workload::ArrivalProcess>(
        options.open_loop.arrival, options.open_loop.rate_per_sec,
        options.open_loop.seed);
  }
  workload::ArrivalProcess* const block_arrivals =
      blocks == 1 ? arrivals.get() : nullptr;
  const std::size_t endpoint_count = prefilters.size();
  const std::size_t object_count = trace.initial_object_bytes.size();
  const EventTime warmup_end = trace.info.warmup_end_event;
  const double seconds_per_event = options.seconds_per_event;
  // Stream positions and trace indices ride in 32 bits.
  DELTA_CHECK(trace.order.size() < kNoQuery &&
              trace.queries.size() < kNoQuery &&
              trace.updates.size() < kNoQuery);
  DecodedStream stream;
  stream.event_count = trace.order.size();
  stream.events =
      std::make_unique_for_overwrite<DecodedEvent[]>(stream.event_count);
  stream.touch_rows.resize(endpoint_count);
  for (std::size_t e = 0; e < endpoint_count; ++e) {
    if (prefilters[e]) stream.touch_rows[e].assign(object_count, 0);
  }
  DecodedEvent* const events = stream.events.get();

  std::vector<BlockTally> tallies(blocks);
  util::parallel_for_blocks(
      stream.event_count, blocks,
      [&](std::size_t b, std::size_t begin, std::size_t end) {
        BlockTally& tally = tallies[b];
        tally.routed.assign(endpoint_count, 0);
        tally.retained.assign(endpoint_count, 0);
        tally.head.resize(endpoint_count * kPrefetchLead);
        tally.tail.resize(endpoint_count * kPrefetchLead);
        for (std::size_t pos = begin; pos < end; ++pos) {
          const workload::Event& event = trace.order[pos];
          DecodedEvent d;
          d.is_update = event.kind == workload::Event::Kind::kUpdate;
          d.prefetch = kNoQuery;
          const auto i = static_cast<std::size_t>(event.index);
          DELTA_CHECK(event.index >= 0 &&
                      i < (d.is_update ? trace.updates.size()
                                       : trace.queries.size()));
          d.index = static_cast<std::uint32_t>(i);
          if (d.is_update) {
            const workload::Update& u = trace.updates[i];
            d.now = u.time;
            // Object ids index the shards' prefilter gates; a hand-built
            // trace need not have been validated.
            DELTA_CHECK_MSG(u.object.value() >= 0 &&
                                static_cast<std::size_t>(u.object.value()) <
                                    object_count,
                            "update " << i << " names object "
                                      << u.object.value() << " of "
                                      << object_count);
            d.object = static_cast<std::uint32_t>(u.object.value());
          } else {
            const workload::Query& q = trace.queries[i];
            d.now = q.time;
            // A worker silently skips queries routed out of range, so the
            // whole split is validated here.
            const std::uint32_t e = routing[i];
            DELTA_CHECK(e < endpoint_count);
            d.endpoint = e;
            // Link the partition's query kPrefetchLead routed queries back
            // in this block to this one; the stitch links across blocks.
            const std::size_t k = tally.routed[e];
            std::uint32_t& oldest =
                tally.tail[e * kPrefetchLead + k % kPrefetchLead];
            if (k >= kPrefetchLead) {
              events[oldest].prefetch = d.index;
            } else {
              tally.head[e * kPrefetchLead + k] =
                  static_cast<std::uint32_t>(pos);
            }
            oldest = static_cast<std::uint32_t>(pos);
            ++tally.routed[e];
            if (d.now >= warmup_end &&
                (sketch_stride <= 1 ||
                 static_cast<std::int64_t>(i) % sketch_stride == 0)) {
              ++tally.retained[e];
            }
            std::vector<std::uint8_t>& row = stream.touch_rows[e];
            if (!row.empty()) {
              // Marked here, while the query record is in cache, so no
              // partition walks the routing table or the query records for
              // its touch set. Blocks mark one row concurrently: a relaxed
              // load first, so a byte already set is never written again
              // and its cache line is not bounced between workers.
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
          d.arrival = block_arrivals != nullptr
                          ? block_arrivals->next()
                          : static_cast<double>(d.now) * seconds_per_event;
          events[pos] = d;
        }
      });

  // Stitch, per partition in block order: the first kPrefetchLead routed
  // queries of a block are the lookahead of the partition's last
  // kPrefetchLead before it, which may lie several blocks back when a block
  // routes fewer than kPrefetchLead queries to the partition.
  stream.routed_queries.assign(endpoint_count, 0);
  stream.retained_samples.assign(endpoint_count, 0);
  for (std::size_t e = 0; e < endpoint_count; ++e) {
    // Stream positions of the partition's last kPrefetchLead routed queries
    // so far: a ring indexed by its routed count.
    std::array<std::uint32_t, kPrefetchLead> last{};
    std::size_t& seen = stream.routed_queries[e];
    for (const BlockTally& tally : tallies) {
      const std::size_t count = tally.routed[e];
      const std::size_t lead = std::min(count, kPrefetchLead);
      const std::uint32_t* const head = &tally.head[e * kPrefetchLead];
      const std::uint32_t* const tail = &tally.tail[e * kPrefetchLead];
      for (std::size_t k = seen >= kPrefetchLead ? 0 : kPrefetchLead - seen;
           k < lead; ++k) {
        events[last[(seen + k) % kPrefetchLead]].prefetch =
            events[head[k]].index;
      }
      for (std::size_t k = count - lead; k < count; ++k) {
        last[(seen + k) % kPrefetchLead] = tail[k % kPrefetchLead];
      }
      seen += count;
      stream.retained_samples[e] += tally.retained[e];
    }
  }
  if (arrivals != nullptr && block_arrivals == nullptr) {
    for (std::size_t pos = 0; pos < stream.event_count; ++pos) {
      events[pos].arrival = arrivals->next();
    }
  }
  return stream;
}

}  // namespace delta::sim
