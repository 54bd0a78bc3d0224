// Shared accounting-invariant checks for the per-endpoint / aggregate
// metering architecture. One definition, asserted from the net-layer tests
// (raw transport) and the multi-endpoint event-engine tests — the
// invariant itself is the contract both layers advertise.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "net/transport.h"
#include "sim/event_engine.h"

namespace delta::testing {

/// Per-endpoint meters partition the aggregate: for every mechanism, the
/// bytes and message counts summed over all registered endpoints reproduce
/// the transport's aggregate meter exactly (every send is accounted to
/// exactly one endpoint meter).
inline void ExpectEndpointMetersPartitionAggregate(const net::Transport& t) {
  for (std::size_t i = 0; i < net::kMechanismCount; ++i) {
    const auto mech = static_cast<net::Mechanism>(i);
    Bytes bytes_sum;
    std::int64_t count_sum = 0;
    for (const std::string& name : t.endpoint_names()) {
      bytes_sum += t.endpoint_meter(name).total(mech);
      count_sum += t.endpoint_meter(name).message_count(mech);
    }
    EXPECT_EQ(bytes_sum, t.meter().total(mech)) << net::to_string(mech);
    EXPECT_EQ(count_sum, t.meter().message_count(mech))
        << net::to_string(mech);
  }
}

/// Per-endpoint RunResults partition the combined figures: total and
/// post-warm-up traffic (overall and per mechanism) and the decision
/// counters sum exactly to the combined view, because all figure traffic is
/// delivered to cache endpoints. Overhead only under-counts: request and
/// eviction chatter is delivered to the server endpoint, which no
/// per-endpoint result owns.
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
}

}  // namespace delta::testing
