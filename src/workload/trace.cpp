#include "workload/trace.h"

#include <algorithm>
#include <functional>

#include "util/check.h"

namespace delta::workload {

Bytes Trace::total_query_cost(EventTime from_event) const {
  Bytes total;
  for (const Query& q : queries) {
    if (q.time >= from_event) total += q.cost;
  }
  return total;
}

Bytes Trace::total_update_cost(EventTime from_event) const {
  Bytes total;
  for (const Update& u : updates) {
    if (u.time >= from_event) total += u.cost;
  }
  return total;
}

void objects_of_cover(const htm::PartitionMap& map,
                      const std::vector<std::int32_t>& base_cover,
                      std::vector<ObjectId>& scratch, ObjectList& out) {
  scratch.clear();
  for (const std::int32_t idx : base_cover) {
    scratch.push_back(map.object_for_base_index(idx));
  }
  std::sort(scratch.begin(), scratch.end());
  const auto last = std::unique(scratch.begin(), scratch.end());
  out.assign(scratch.data(), scratch.data() + (last - scratch.begin()));
}

void Trace::remap(const htm::PartitionMap& map) {
  DELTA_CHECK_MSG(map.base_level() == info.base_level,
                  "partition map base level mismatch");
  std::vector<ObjectId> scratch;
  for (Query& q : queries) {
    objects_of_cover(map, q.base_cover, scratch, q.objects);
  }
  for (Update& u : updates) {
    DELTA_CHECK(u.base_index >= 0);
    u.object = map.object_for_base_index(u.base_index);
  }
  initial_object_bytes.assign(map.partition_count(), Bytes{});
  for (std::size_t i = 0; i < map.partition_count(); ++i) {
    const ObjectId oid{static_cast<std::int64_t>(i)};
    // Partition weights are row counts when the map is built from a
    // row-scaled density model.
    initial_object_bytes[i] = Bytes{static_cast<std::int64_t>(
        map.partition_weight(oid) * info.row_bytes.as_double())};
  }
  info.partition_count = map.partition_count();
}

void Trace::check_record_counts() const {
  constexpr auto kMaxRecords = static_cast<std::size_t>(Event::kMaxIndex) + 1;
  DELTA_CHECK_MSG(
      queries.size() <= kMaxRecords && updates.size() <= kMaxRecords,
      "trace of " << queries.size() << " queries and " << updates.size()
                  << " updates: an event index names at most " << kMaxRecords
                  << " of each");
}

void Trace::validate() const {
  check_record_counts();
  DELTA_CHECK(info.row_bytes.count() > 0);
  DELTA_CHECK(order.size() == queries.size() + updates.size());
  DELTA_CHECK(info.partition_count == initial_object_bytes.size());
  EventTime prev = -1;
  std::int64_t qi = 0;
  std::int64_t ui = 0;
  for (const Event& e : order) {
    if (e.kind == Event::Kind::kQuery) {
      DELTA_CHECK(e.index == qi);
      const Query& q = queries[static_cast<std::size_t>(qi++)];
      DELTA_CHECK(q.time > prev);
      prev = q.time;
      DELTA_CHECK(q.cost.count() > 0);
      DELTA_CHECK(q.staleness_tolerance >= 0);
      DELTA_CHECK(!q.objects.empty());
      // Strictly increasing: a repeated object would be proposed for
      // loading twice and counted twice in savings shares.
      DELTA_CHECK_MSG(std::adjacent_find(q.objects.begin(), q.objects.end(),
                                         std::greater_equal<>{}) ==
                          q.objects.end(),
                      "query " << q.id.value()
                               << " objects not strictly increasing");
      for (const ObjectId o : q.objects) {
        DELTA_CHECK(o.valid());
        DELTA_CHECK(static_cast<std::size_t>(o.value()) <
                    initial_object_bytes.size());
      }
    } else {
      DELTA_CHECK(e.index == ui);
      const Update& u = updates[static_cast<std::size_t>(ui++)];
      DELTA_CHECK(u.time > prev);
      prev = u.time;
      DELTA_CHECK(u.cost.count() > 0);
      DELTA_CHECK(u.rows > 0.0);
      DELTA_CHECK(u.object.valid());
      DELTA_CHECK(static_cast<std::size_t>(u.object.value()) <
                  initial_object_bytes.size());
    }
  }
  DELTA_CHECK(qi == static_cast<std::int64_t>(queries.size()));
  DELTA_CHECK(ui == static_cast<std::int64_t>(updates.size()));
  DELTA_CHECK(info.warmup_end_event >= 0 &&
              info.warmup_end_event <= static_cast<EventTime>(order.size()));
}

}  // namespace delta::workload
