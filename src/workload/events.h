// Query, update and merged-event types: the workload vocabulary of §3.
//
// A query q carries its spatial specification, the set of data objects it
// accesses B(q) (derived from the specification by the semantic framework),
// its network shipping cost ν(q) (result bytes) and its tolerance for
// staleness t(q). An update u targets exactly one data object o(u) and
// carries its shipping cost ν(u).
#pragma once

#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "htm/region.h"
#include "htm/vec3.h"
#include "util/check.h"
#include "util/types.h"
#include "workload/object_list.h"

namespace delta::workload {

enum class QueryKind : std::uint8_t {
  kConeSearch,
  kRangeRect,
  kSelfJoin,
  kAggregation,
  kScanChunk,
};

[[nodiscard]] constexpr const char* to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::kConeSearch:
      return "cone";
    case QueryKind::kRangeRect:
      return "rect";
    case QueryKind::kSelfJoin:
      return "self_join";
    case QueryKind::kAggregation:
      return "aggregation";
    case QueryKind::kScanChunk:
      return "scan_chunk";
  }
  return "?";
}

struct Query {
  QueryId id;
  EventTime time = 0;  // position in the merged event sequence
  QueryKind kind = QueryKind::kConeSearch;
  htm::Region region;
  /// Base-level trixel indices covered by the region (computed once at
  /// generation; partition-independent, so re-mapping the trace to another
  /// granularity — Fig. 8b — is a table lookup).
  std::vector<std::int32_t> base_cover;
  /// B(q) under the trace's current partition map (sorted, unique). One
  /// id is held inline; see ObjectList.
  ObjectList objects;
  /// ν(q): result bytes shipped if the query is sent to the server.
  Bytes cost;
  /// t(q): answers may omit updates newer than time - tolerance.
  EventTime staleness_tolerance = 0;
};

struct Update {
  UpdateId id;
  EventTime time = 0;
  /// Sky position of the observation batch (partition-independent).
  htm::Vec3 position;
  /// Base-level trixel index of the position (for O(1) re-mapping).
  std::int32_t base_index = -1;
  /// o(u) under the trace's current partition map.
  ObjectId object;
  /// Rows inserted into o(u).
  double rows = 0.0;
  /// ν(u): bytes shipped if this update is propagated to the cache.
  Bytes cost;
};

/// One position of the merged sequence: 8 bytes, so a trace of n events
/// holds its order in 8n.
struct Event {
  enum class Kind : std::uint8_t { kQuery, kUpdate };
  /// Largest query or update index an event can name.
  static constexpr std::int64_t kMaxIndex =
      std::numeric_limits<std::int32_t>::max();

  Kind kind = Kind::kQuery;
  /// Index into Trace::queries or Trace::updates.
  std::int32_t index = 0;

  /// The event for Trace::queries[i]; throws when i is outside
  /// [0, kMaxIndex].
  [[nodiscard]] static Event query(std::int64_t i) {
    return {Kind::kQuery, checked_index(i)};
  }
  /// The event for Trace::updates[i]; throws like query().
  [[nodiscard]] static Event update(std::int64_t i) {
    return {Kind::kUpdate, checked_index(i)};
  }

 private:
  static std::int32_t checked_index(std::int64_t i) {
    DELTA_CHECK_MSG(i >= 0 && i <= kMaxIndex,
                    "event index " << i << " outside [0, " << kMaxIndex
                                   << "]");
    return static_cast<std::int32_t>(i);
  }
};

// Trace records are the simulator's largest data structure: at 10^6
// objects most of the process.
static_assert(sizeof(Query) == 120);
static_assert(sizeof(Event) == 8);
// Without a noexcept move, std::vector<Query> would copy on growth.
static_assert(std::is_nothrow_move_constructible_v<Query>);

}  // namespace delta::workload
