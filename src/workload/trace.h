// A complete middleware workload: queries, updates, their merged arrival
// order, and the repository's initial object sizes. Traces are
// partition-aware but granularity-portable: queries carry their base-trixel
// covers and updates their base-trixel index, so the same trace can be
// re-mapped onto any partition map built over the same base level and
// density model (the Fig. 8b granularity sweep).
#pragma once

#include <cstdint>
#include <vector>

#include "htm/partition_map.h"
#include "util/types.h"
#include "workload/events.h"

namespace delta::workload {

struct TraceInfo {
  std::uint64_t seed = 0;
  int base_level = 5;
  Bytes row_bytes;
  /// Merged-event index where the post-warm-up measurement window begins.
  EventTime warmup_end_event = 0;
  /// Object count of the partition map the trace is currently mapped to.
  std::size_t partition_count = 0;
};

class Trace {
 public:
  TraceInfo info;
  std::vector<Query> queries;
  std::vector<Update> updates;
  std::vector<Event> order;
  /// Initial (pre-growth) size per partition, indexed by ObjectId.
  std::vector<Bytes> initial_object_bytes;

  [[nodiscard]] std::int64_t event_count() const {
    return static_cast<std::int64_t>(order.size());
  }

  /// Sum of ν(q) over queries arriving at or after `from_event` — the
  /// NoCache yardstick over the measurement window.
  [[nodiscard]] Bytes total_query_cost(EventTime from_event = 0) const;

  /// Sum of ν(u) over updates arriving at or after `from_event` — the
  /// Replica yardstick over the measurement window.
  [[nodiscard]] Bytes total_update_cost(EventTime from_event = 0) const;

  /// Re-derives B(q), o(u) and the initial object sizes under a different
  /// partition map. The map must share the trace's base level and be built
  /// from the same (row-scaled) density weights. Query/update costs are
  /// partitioning-independent and unchanged.
  void remap(const htm::PartitionMap& map);

  /// Throws unless every query and update index fits Event::index.
  void check_record_counts() const;

  /// Structural sanity: record counts within Event::index, monotone
  /// times, order indices in range, sorted non-empty B(q), positive costs.
  /// Throws on violation.
  void validate() const;
};

/// Sets `out` to B(q) of a base cover under `map`: the sorted, unique
/// objects its trixels map to. `scratch` is reused across calls, so a
/// one-object result allocates nothing.
void objects_of_cover(const htm::PartitionMap& map,
                      const std::vector<std::int32_t>& base_cover,
                      std::vector<ObjectId>& scratch, ObjectList& out);

}  // namespace delta::workload
