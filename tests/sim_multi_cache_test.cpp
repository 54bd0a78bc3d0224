// Multi-endpoint simulation tests: trace splitting, and sharded policies on
// the event engine (sim_parallel_test holds the N=1 equivalence and the
// per-endpoint/aggregate accounting identities).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/yardsticks.h"
#include "sim/event_engine.h"
#include "sim/experiment.h"
#include "trace_builder.h"
#include "workload/trace_split.h"

namespace delta::sim {
namespace {

using World = Setup;  // ::testing::Test::Setup shadows sim::Setup in TESTs

SetupParams small_params(std::uint64_t seed = 5) {
  SetupParams p;
  p.base_level = 4;
  p.total_rows = 4e7;
  p.object_target = 30;
  p.trace_seed = seed;
  p.trace.query_count = 2000;
  p.trace.update_count = 2000;
  p.trace.postwarmup_query_gb = 8.0;
  p.trace.mean_postwarmup_update_mb = 2.0;
  p.trace.hotspot_max_object_gb = 1.0;
  p.benefit_window = 500;
  return p;
}

// ------------------------------------------------------------- splitting

TEST(TraceSplitTest, RoundRobinDealsEvenly) {
  const World setup{small_params()};
  const auto assignment = workload::assign_queries(
      setup.trace(), 4, workload::SplitStrategy::kRoundRobin);
  ASSERT_EQ(assignment.size(), setup.trace().queries.size());
  std::array<std::int64_t, 4> counts{};
  for (const std::uint32_t e : assignment) {
    ASSERT_LT(e, 4u);
    ++counts[e];
  }
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_LE(*hi - *lo, 1);
}

TEST(TraceSplitTest, HashByRegionIsDeterministicAndSpatiallyConsistent) {
  const World setup{small_params()};
  const auto a = workload::assign_queries(
      setup.trace(), 4, workload::SplitStrategy::kHashByRegion);
  const auto b = workload::assign_queries(
      setup.trace(), 4, workload::SplitStrategy::kHashByRegion);
  EXPECT_EQ(a, b);
  // Queries anchored at the same base trixel always land together.
  std::unordered_map<std::int32_t, std::uint32_t> anchor_endpoint;
  for (std::size_t i = 0; i < setup.trace().queries.size(); ++i) {
    const auto& q = setup.trace().queries[i];
    if (q.base_cover.empty()) continue;
    const auto [it, inserted] =
        anchor_endpoint.emplace(q.base_cover.front(), a[i]);
    EXPECT_EQ(it->second, a[i]);
  }
  // And the split is non-trivial: more than one endpoint is used.
  std::set<std::uint32_t> used(a.begin(), a.end());
  EXPECT_GT(used.size(), 1u);
}

TEST(TraceSplitTest, SingleEndpointTakesEverything) {
  const World setup{small_params()};
  for (const auto strategy : {workload::SplitStrategy::kRoundRobin,
                              workload::SplitStrategy::kHashByRegion}) {
    const auto assignment =
        workload::assign_queries(setup.trace(), 1, strategy);
    for (const std::uint32_t e : assignment) EXPECT_EQ(e, 0u);
  }
}

// ------------------------------------------------------ sharded policies

// SOptimal is offline: when sharded, each endpoint's hindsight must count
// only the queries routed to it, so disjoint shards choose disjoint sets
// instead of every endpoint loading the global optimum.
TEST(MultiCacheSimTest, ShardedSOptimalOptimizesPerEndpointQueries) {
  // Two equally hot objects; round-robin over the alternating query
  // sequence routes all object-0 queries to endpoint 0 and all object-1
  // queries to endpoint 1.
  delta::testing::TraceBuilder b{{1000, 1000}};
  for (int i = 0; i < 4; ++i) {
    b.query({0}, 600'000);
    b.query({1}, 600'000);
  }
  const workload::Trace trace = b.build();
  const auto assignment = workload::assign_queries(
      trace, 2, workload::SplitStrategy::kRoundRobin);

  // The policies live only for the duration of the run; snapshot each
  // endpoint's chosen set at construction.
  std::vector<std::unordered_set<ObjectId>> chosen(2);
  const EventRunResult result = run_policy_event(
      trace, 2, workload::SplitStrategy::kRoundRobin,
      [&](core::CacheNode& cache, std::size_t index) {
        core::SOptimalOptions opts;
        opts.cache_capacity = Bytes{10'000'000};
        opts.query_assignment = &assignment;
        opts.endpoint = static_cast<std::uint32_t>(index);
        auto policy = std::make_unique<core::SOptimalPolicy>(&cache, &trace,
                                                             opts);
        for (const ObjectId o : policy->chosen()) chosen[index].insert(o);
        return policy;
      },
      EventEngineOptions{}, &assignment);

  // Each endpoint chose exactly its own object — the cross-shard queries
  // did not inflate its hindsight.
  EXPECT_EQ(chosen[0], std::unordered_set<ObjectId>{ObjectId{0}});
  EXPECT_EQ(chosen[1], std::unordered_set<ObjectId>{ObjectId{1}});
  // All queries answered at their shard's cache; the only figure traffic
  // is each endpoint loading its own object once (no duplicate loads).
  const Bytes one_load =
      Bytes{1000} + core::ServerNode::kLoadOverheadBytes;
  EXPECT_EQ(result.replay.combined.total_traffic, one_load * 2);
  EXPECT_EQ(result.replay.combined.cache_fresh, 8);
}

// Sharding sanity: with spatial splitting each endpoint sees a narrower
// working set, so per-endpoint caches answer queries locally too — the
// multi-endpoint system must still beat shipping everything.
TEST(MultiCacheSimTest, ShardedVCoverStillBeatsNoCache) {
  const World setup{small_params(10)};
  const RunResult nocache = run_one(PolicyKind::kNoCache, setup.trace(),
                                    setup.cache_capacity(), setup.params());
  const MultiRunResult sharded =
      run_one_event(PolicyKind::kVCover, setup.trace(),
                    setup.cache_capacity(), setup.params(), 4,
                    workload::SplitStrategy::kHashByRegion)
          .replay;
  EXPECT_LT(sharded.combined.postwarmup_traffic,
            nocache.postwarmup_traffic);
  EXPECT_GT(sharded.combined.cache_fresh +
                sharded.combined.cache_after_updates,
            0);
}

}  // namespace
}  // namespace delta::sim
