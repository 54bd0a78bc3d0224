// Property-based tests for workload::SplitStrategy: over randomized traces,
// the per-endpoint shards must form a disjoint exact partition of the query
// stream — every query routed exactly once, arrival order preserved within
// each shard — for every strategy and endpoint count. The balanced split is
// also checked against the sort + lower_bound reference in
// balanced_split_oracle.h, which it must match exactly, and every strategy
// must give the same split at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <unordered_map>
#include <vector>

#include "balanced_split_oracle.h"
#include "trace_builder.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/trace_split.h"

namespace delta::workload {
namespace {

constexpr SplitStrategy kStrategies[] = {SplitStrategy::kRoundRobin,
                                         SplitStrategy::kHashByRegion,
                                         SplitStrategy::kBalancedByLoad};
constexpr std::size_t kEndpointCounts[] = {1, 2, 3, 5, 8};

/// A random trace: `object_count` objects with random sizes, a random
/// interleaving of queries (random object subsets — the subset's first
/// object is the spatial anchor) and updates.
Trace random_trace(util::Rng& rng) {
  const auto object_count =
      static_cast<std::size_t>(rng.uniform_int(2, 20));
  std::vector<std::int64_t> sizes;
  sizes.reserve(object_count);
  for (std::size_t i = 0; i < object_count; ++i) {
    sizes.push_back(rng.uniform_int(1'000, 1'000'000));
  }
  delta::testing::TraceBuilder builder{sizes};
  const std::int64_t events = rng.uniform_int(1, 300);
  for (std::int64_t e = 0; e < events; ++e) {
    if (rng.bernoulli(0.3)) {
      builder.update(
          rng.uniform_int(0, static_cast<std::int64_t>(object_count) - 1),
          rng.uniform_int(1, 10'000));
    } else {
      const auto span = rng.uniform_int(
          1, std::min<std::int64_t>(4, static_cast<std::int64_t>(object_count)));
      const auto first = rng.uniform_int(
          0, static_cast<std::int64_t>(object_count) - span);
      std::vector<std::int64_t> objects;
      for (std::int64_t o = first; o < first + span; ++o) objects.push_back(o);
      builder.query(objects, rng.uniform_int(1, 100'000));
    }
  }
  return builder.build();
}

/// Rebuilds the per-endpoint shards exactly as the simulation engine routes
/// them and asserts the partition properties.
void expect_exact_partition(const Trace& trace,
                            const std::vector<std::uint32_t>& assignment,
                            std::size_t endpoint_count) {
  ASSERT_EQ(assignment.size(), trace.queries.size());
  std::vector<std::vector<std::size_t>> shards(endpoint_count);
  for (std::size_t qi = 0; qi < assignment.size(); ++qi) {
    ASSERT_LT(assignment[qi], endpoint_count) << "query " << qi;
    shards[assignment[qi]].push_back(qi);
  }
  // Disjoint exact cover: each query index lands in exactly one shard, and
  // within a shard the arrival order is preserved (strictly increasing
  // indices — the engine replays each shard in trace order).
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (std::size_t e = 0; e < endpoint_count; ++e) {
    for (std::size_t k = 0; k < shards[e].size(); ++k) {
      if (k > 0) {
        EXPECT_LT(shards[e][k - 1], shards[e][k])
            << "order broken in shard " << e;
      }
      EXPECT_TRUE(seen.insert(shards[e][k]).second)
          << "query " << shards[e][k] << " routed twice";
    }
    total += shards[e].size();
  }
  EXPECT_EQ(total, trace.queries.size());
}

TEST(SplitStrategyPropertyTest, ShardsAreADisjointExactPartition) {
  util::Rng rng{20260730};
  for (int iteration = 0; iteration < 50; ++iteration) {
    const Trace trace = random_trace(rng);
    for (const SplitStrategy strategy : kStrategies) {
      for (const std::size_t n : kEndpointCounts) {
        SCOPED_TRACE(::testing::Message()
                     << "iteration " << iteration << " strategy "
                     << to_string(strategy) << " endpoints " << n);
        expect_exact_partition(trace, assign_queries(trace, n, strategy), n);
      }
    }
  }
}

TEST(SplitStrategyPropertyTest, AssignmentIsAPureFunctionOfTheTrace) {
  util::Rng rng{77};
  for (int iteration = 0; iteration < 20; ++iteration) {
    const Trace trace = random_trace(rng);
    for (const SplitStrategy strategy : kStrategies) {
      for (const std::size_t n : kEndpointCounts) {
        EXPECT_EQ(assign_queries(trace, n, strategy),
                  assign_queries(trace, n, strategy))
            << to_string(strategy) << " n=" << n;
      }
    }
  }
}

TEST(SplitStrategyPropertyTest, RoundRobinDealsInArrivalOrder) {
  util::Rng rng{123};
  for (int iteration = 0; iteration < 20; ++iteration) {
    const Trace trace = random_trace(rng);
    for (const std::size_t n : kEndpointCounts) {
      const auto assignment =
          assign_queries(trace, n, SplitStrategy::kRoundRobin);
      for (std::size_t qi = 0; qi < assignment.size(); ++qi) {
        ASSERT_EQ(assignment[qi], qi % n) << "query " << qi << " n=" << n;
      }
    }
  }
}

TEST(SplitStrategyPropertyTest, BalancedByLoadKeepsAnchorsTogether) {
  // Like hash-by-region, the balanced split's atomic unit is the spatial
  // anchor — all queries sharing an anchor land on one endpoint, so a
  // region's working set is never split across caches.
  util::Rng rng{20260808};
  for (int iteration = 0; iteration < 20; ++iteration) {
    const Trace trace = random_trace(rng);
    for (const std::size_t n : kEndpointCounts) {
      const auto assignment =
          assign_queries(trace, n, SplitStrategy::kBalancedByLoad);
      std::unordered_map<std::int32_t, std::uint32_t> anchor_endpoint;
      for (std::size_t qi = 0; qi < trace.queries.size(); ++qi) {
        const auto& q = trace.queries[qi];
        if (q.base_cover.empty()) continue;
        const auto [it, inserted] =
            anchor_endpoint.emplace(q.base_cover.front(), assignment[qi]);
        EXPECT_EQ(it->second, assignment[qi])
            << "anchor " << q.base_cover.front() << " split across endpoints";
      }
    }
  }
}

TEST(SplitStrategyPropertyTest, BalancedByLoadBoundsTheImbalance) {
  // LPT guarantee at anchor granularity: the heaviest endpoint carries at
  // most the mean query load plus one whole anchor's queries (the split
  // cannot cut an anchor, so this is the best general bound).
  util::Rng rng{20260809};
  for (int iteration = 0; iteration < 20; ++iteration) {
    const Trace trace = random_trace(rng);
    if (trace.queries.empty()) continue;
    for (const std::size_t n : kEndpointCounts) {
      const auto assignment =
          assign_queries(trace, n, SplitStrategy::kBalancedByLoad);
      std::unordered_map<std::int64_t, std::size_t> anchor_queries;
      for (const auto& q : trace.queries) {
        const std::int64_t anchor =
            q.base_cover.empty()
                ? -1 - static_cast<std::int64_t>(q.id.value())
                : q.base_cover.front();
        ++anchor_queries[anchor];
      }
      std::size_t largest_anchor = 0;
      for (const auto& [anchor, count] : anchor_queries) {
        largest_anchor = std::max(largest_anchor, count);
      }
      std::vector<std::size_t> load(n, 0);
      for (const std::uint32_t e : assignment) ++load[e];
      const std::size_t max_load = *std::max_element(load.begin(), load.end());
      EXPECT_LE(static_cast<double>(max_load),
                static_cast<double>(trace.queries.size()) /
                        static_cast<double>(n) +
                    static_cast<double>(largest_anchor))
          << "n=" << n;
    }
  }
}

TEST(SplitStrategyPropertyTest, HashByRegionKeepsAnchorsTogether) {
  util::Rng rng{456};
  for (int iteration = 0; iteration < 20; ++iteration) {
    const Trace trace = random_trace(rng);
    for (const std::size_t n : kEndpointCounts) {
      const auto assignment =
          assign_queries(trace, n, SplitStrategy::kHashByRegion);
      std::unordered_map<std::int32_t, std::uint32_t> anchor_endpoint;
      for (std::size_t qi = 0; qi < trace.queries.size(); ++qi) {
        const auto& q = trace.queries[qi];
        if (q.base_cover.empty()) continue;
        const auto [it, inserted] =
            anchor_endpoint.emplace(q.base_cover.front(), assignment[qi]);
        EXPECT_EQ(it->second, assignment[qi])
            << "anchor " << q.base_cover.front() << " split across endpoints";
      }
    }
  }
}

/// A trace of `queries` queries whose anchors are drawn from `pool`
/// (`tied` = each pool anchor used exactly queries / pool.size() times, in
/// shuffled arrival order); a `coverless` share of the queries has no
/// cover, so each of those is an anchor of its own.
Trace anchored_trace(util::Rng& rng, std::size_t queries,
                     const std::vector<std::int32_t>& pool, bool tied,
                     double coverless) {
  Trace trace;
  std::vector<std::int32_t> anchors;
  for (std::size_t i = 0; i < queries; ++i) {
    anchors.push_back(
        tied ? pool[i % pool.size()]
             : pool[static_cast<std::size_t>(rng.uniform_int(
                   0, static_cast<std::int64_t>(pool.size()) - 1))]);
  }
  rng.shuffle(anchors);
  for (std::size_t i = 0; i < queries; ++i) {
    Query q;
    q.id = QueryId{static_cast<std::int64_t>(i)};
    q.time = static_cast<EventTime>(i);
    if (!rng.bernoulli(coverless)) q.base_cover = {anchors[i], anchors[i] + 1};
    trace.order.push_back(Event::query(static_cast<std::int64_t>(i)));
    trace.queries.push_back(std::move(q));
  }
  return trace;
}

/// `count` distinct anchors at random trixel indices, so an anchor's
/// first-seen position says nothing about its key order.
std::vector<std::int32_t> random_pool(util::Rng& rng, std::size_t count) {
  std::set<std::int32_t> pool;
  while (pool.size() < count) {
    pool.insert(static_cast<std::int32_t>(rng.uniform_int(0, 1 << 20)));
  }
  return {pool.begin(), pool.end()};
}

constexpr std::size_t kOracleEndpointCounts[] = {1, 2, 3, 4, 7, 64, 65};

void expect_matches_oracle(const Trace& trace) {
  for (const std::size_t n : kOracleEndpointCounts) {
    SCOPED_TRACE(::testing::Message() << "endpoints " << n);
    EXPECT_EQ(assign_queries(trace, n, SplitStrategy::kBalancedByLoad),
              oracle::assign_balanced(trace, n));
  }
}

TEST(SplitStrategyPropertyTest, BalancedByLoadMatchesOracleOnRandomTraces) {
  util::Rng rng{20261017};
  for (int iteration = 0; iteration < 30; ++iteration) {
    SCOPED_TRACE(::testing::Message() << "iteration " << iteration);
    // Mixed covered and cover-less queries over the random object traces.
    Trace trace = random_trace(rng);
    for (Query& q : trace.queries) {
      if (rng.bernoulli(0.3)) q.base_cover.clear();
    }
    expect_matches_oracle(trace);
    // Many anchors with skewed random counts, some cover-less queries.
    const std::vector<std::int32_t> pool = random_pool(
        rng, static_cast<std::size_t>(rng.uniform_int(1, 300)));
    expect_matches_oracle(anchored_trace(
        rng, static_cast<std::size_t>(rng.uniform_int(1, 2000)), pool,
        /*tied=*/false, /*coverless=*/0.1));
  }
}

TEST(SplitStrategyPropertyTest, BalancedByLoadMatchesOracleOnSingleAnchor) {
  util::Rng rng{5};
  const Trace trace =
      anchored_trace(rng, 500, {12345}, /*tied=*/true, /*coverless=*/0.0);
  expect_matches_oracle(trace);
  // One anchor is one LPT job: every query lands on endpoint 0.
  for (const std::uint32_t e :
       assign_queries(trace, 65, SplitStrategy::kBalancedByLoad)) {
    ASSERT_EQ(e, 0u);
  }
}

TEST(SplitStrategyPropertyTest, BalancedByLoadMatchesOracleOnTiedCounts) {
  // Equal anchor counts make the LPT order hinge on the anchors' dense ids,
  // so this is where first-seen order leaking into the ranking would show.
  util::Rng rng{6};
  for (const std::size_t anchors : {2u, 7u, 64u, 65u, 130u, 1000u}) {
    SCOPED_TRACE(::testing::Message() << "anchors " << anchors);
    const std::vector<std::int32_t> pool = random_pool(rng, anchors);
    expect_matches_oracle(
        anchored_trace(rng, anchors * 3, pool, /*tied=*/true, 0.0));
    // Cover-less queries are all tied at one query each.
    expect_matches_oracle(
        anchored_trace(rng, anchors * 3, pool, /*tied=*/true, 0.5));
  }
}

constexpr std::size_t kThreadCounts[] = {2, 3, 4, 8};

/// Every strategy's assignment at each of kThreadCounts equals the
/// single-thread one.
void expect_thread_count_invariant(const Trace& trace,
                                   const std::vector<std::size_t>& endpoints) {
  for (const SplitStrategy strategy : kStrategies) {
    for (const std::size_t n : endpoints) {
      const std::vector<std::uint32_t> serial =
          assign_queries(trace, n, strategy, 1);
      for (const std::size_t threads : kThreadCounts) {
        SCOPED_TRACE(::testing::Message()
                     << to_string(strategy) << " endpoints " << n
                     << " threads " << threads);
        EXPECT_EQ(assign_queries(trace, n, strategy, threads), serial);
      }
    }
  }
}

TEST(SplitStrategyPropertyTest, AssignmentIsIndependentOfThreadCount) {
  util::Rng rng{20261021};
  // Shorter than one block: every thread count splits inline.
  for (int iteration = 0; iteration < 10; ++iteration) {
    SCOPED_TRACE(::testing::Message() << "iteration " << iteration);
    Trace trace = random_trace(rng);
    for (Query& q : trace.queries) {
      if (rng.bernoulli(0.3)) q.base_cover.clear();
    }
    expect_thread_count_invariant(
        trace, {std::begin(kEndpointCounts), std::end(kEndpointCounts)});
  }
  // Enough queries for one block per thread at every thread count, so each
  // count cuts the trace at different places. Anchors recur across blocks
  // (skewed draws from one pool) and a tenth of the queries are cover-less,
  // each an anchor of its own.
  const std::size_t queries = 8 * util::kMinBlockItems + 1234;
  ASSERT_EQ(util::block_count(queries, 8), 8u);
  const Trace trace = anchored_trace(rng, queries, random_pool(rng, 3000),
                                     /*tied=*/false, /*coverless=*/0.1);
  expect_thread_count_invariant(trace, {2, 3, 16});
}

}  // namespace
}  // namespace delta::workload
