// Hand-built micro-traces for core-policy unit tests.
#pragma once

#include <vector>

#include "workload/trace.h"

namespace delta::testing {

class TraceBuilder {
 public:
  /// One partition per entry; entry = initial object size in bytes.
  explicit TraceBuilder(std::vector<std::int64_t> object_bytes) {
    trace_.info.seed = 0;
    trace_.info.base_level = 5;
    trace_.info.row_bytes = Bytes{2048};
    trace_.info.partition_count = object_bytes.size();
    for (const std::int64_t b : object_bytes) {
      trace_.initial_object_bytes.push_back(Bytes{b});
    }
  }

  TraceBuilder& query(std::vector<std::int64_t> objects, std::int64_t cost,
                      EventTime staleness_tolerance = 0) {
    workload::Query q;
    q.id = QueryId{static_cast<std::int64_t>(trace_.queries.size())};
    q.time = now_++;
    q.cost = Bytes{cost};
    q.staleness_tolerance = staleness_tolerance;
    for (const std::int64_t o : objects) {
      q.objects.push_back(ObjectId{o});
      q.base_cover.push_back(static_cast<std::int32_t>(o));
    }
    std::sort(q.objects.begin(), q.objects.end());
    trace_.order.push_back(workload::Event::query(
        static_cast<std::int64_t>(trace_.queries.size())));
    trace_.queries.push_back(std::move(q));
    return *this;
  }

  TraceBuilder& update(std::int64_t object, std::int64_t cost) {
    workload::Update u;
    u.id = UpdateId{static_cast<std::int64_t>(trace_.updates.size())};
    u.time = now_++;
    u.object = ObjectId{object};
    u.base_index = static_cast<std::int32_t>(object);
    u.cost = Bytes{cost};
    u.rows = static_cast<double>(cost) / 2048.0;
    trace_.order.push_back(workload::Event::update(
        static_cast<std::int64_t>(trace_.updates.size())));
    trace_.updates.push_back(u);
    return *this;
  }

  /// Leaves `ticks` unused event times before the next event.
  TraceBuilder& pause(EventTime ticks) {
    now_ += ticks;
    return *this;
  }

  [[nodiscard]] workload::Trace build(EventTime warmup_end = 0) {
    trace_.info.warmup_end_event = warmup_end;
    return trace_;
  }

 private:
  workload::Trace trace_;
  EventTime now_ = 0;
};

}  // namespace delta::testing
