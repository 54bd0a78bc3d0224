// Shared accounting-invariant check for the multi-endpoint engines: the
// per-endpoint results partition the combined figures. One definition,
// asserted from the event-engine and parallel-engine tests.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "sim/event_engine.h"

namespace delta::testing {

/// Per-endpoint RunResults partition the combined figures: total and
/// post-warm-up traffic (overall and per mechanism), the decision counters
/// and the cumulative series (point by point) sum exactly to the combined
/// view, because all figure traffic is delivered to cache endpoints.
/// Overhead only under-counts: request and eviction chatter is delivered
/// to the server endpoint, which no per-endpoint result owns.
inline void ExpectPerEndpointResultsPartitionCombined(
    const sim::MultiRunResult& multi) {
  Bytes total_sum;
  Bytes postwarmup_sum;
  Bytes overhead_sum;
  std::array<Bytes, 3> by_mechanism_sum{};
  std::int64_t queries_sum = 0;
  std::int64_t at_cache_sum = 0;
  std::int64_t shipped_sum = 0;
  std::int64_t loaded_sum = 0;
  for (const sim::RunResult& r : multi.per_endpoint) {
    total_sum += r.total_traffic;
    postwarmup_sum += r.postwarmup_traffic;
    overhead_sum += r.overhead_traffic;
    for (std::size_t m = 0; m < 3; ++m) {
      by_mechanism_sum[m] += r.postwarmup_by_mechanism[m];
    }
    queries_sum += r.queries;
    at_cache_sum += r.cache_fresh + r.cache_after_updates;
    shipped_sum += r.shipped;
    loaded_sum += r.objects_loaded;
  }
  EXPECT_EQ(total_sum, multi.combined.total_traffic);
  EXPECT_EQ(postwarmup_sum, multi.combined.postwarmup_traffic);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(by_mechanism_sum[m], multi.combined.postwarmup_by_mechanism[m])
        << "mechanism " << m;
  }
  EXPECT_EQ(queries_sum, multi.combined.queries);
  EXPECT_EQ(at_cache_sum,
            multi.combined.cache_fresh + multi.combined.cache_after_updates);
  EXPECT_EQ(shipped_sum, multi.combined.shipped);
  EXPECT_EQ(loaded_sum, multi.combined.objects_loaded);
  EXPECT_LE(overhead_sum, multi.combined.overhead_traffic);

  // Every endpoint observed every event, so the series share their event
  // indices, and the integer byte counts sum exactly.
  const auto& combined = multi.combined.series.points();
  for (const sim::RunResult& r : multi.per_endpoint) {
    const auto& points = r.series.points();
    ASSERT_EQ(points.size(), combined.size());
    for (std::size_t k = 0; k < points.size(); ++k) {
      ASSERT_EQ(points[k].event_index, combined[k].event_index) << k;
    }
  }
  for (std::size_t k = 0; k < combined.size(); ++k) {
    double sum = 0.0;
    for (const sim::RunResult& r : multi.per_endpoint) {
      sum += r.series.points()[k].value;
    }
    EXPECT_EQ(sum, combined[k].value) << "series point " << k;
  }
}

}  // namespace delta::testing
