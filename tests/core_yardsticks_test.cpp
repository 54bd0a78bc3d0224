#include "core/yardsticks.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "trace_builder.h"

namespace delta::core {
namespace {

using testing::TraceBuilder;

workload::Trace mixed_trace() {
  TraceBuilder b{{1'000'000, 2'000'000, 4'000'000}};
  b.query({0}, 500'000);
  b.update(1, 300'000);
  b.query({0, 1}, 700'000);
  b.update(0, 100'000);
  b.query({2}, 900'000);
  return b.build();
}

TEST(NoCacheTest, TotalEqualsSumOfQueryCosts) {
  const auto trace = mixed_trace();
  DeltaSystem system{&trace};
  NoCachePolicy policy{&system.cache()};
  const auto result = sim::run_policy(trace, system, policy);
  EXPECT_EQ(result.total_traffic, trace.total_query_cost());
  EXPECT_EQ(result.shipped, 3);
  EXPECT_EQ(result.cache_fresh, 0);
}

TEST(ReplicaTest, TotalEqualsSumOfUpdateCosts) {
  const auto trace = mixed_trace();
  DeltaSystem system{&trace};
  ReplicaPolicy policy{&system.cache()};
  const auto result = sim::run_policy(trace, system, policy);
  EXPECT_EQ(result.total_traffic, trace.total_update_cost());
  EXPECT_EQ(result.cache_fresh, 3);  // every query answered locally
  EXPECT_EQ(result.shipped, 0);
}

TEST(SOptimalTest, ChoosesProfitableStaticSet) {
  // Object 0: hammered by queries, no updates -> must be chosen.
  // Object 1: update-only -> must not be chosen.
  TraceBuilder b{{1'000'000, 1'000'000}};
  for (int i = 0; i < 10; ++i) b.query({0}, 2'000'000);
  for (int i = 0; i < 10; ++i) b.update(1, 2'000'000);
  const auto trace = b.build();
  DeltaSystem system{&trace};
  SOptimalOptions opts;
  opts.cache_capacity = Bytes{10'000'000};
  SOptimalPolicy policy{&system.cache(), &trace, opts};
  EXPECT_EQ(policy.chosen(), std::vector<ObjectId>{ObjectId{0}});
  const auto result = sim::run_policy(trace, system, policy);
  // Loads up front; all queries at cache; no update traffic (object 1 not
  // registered).
  EXPECT_EQ(result.cache_fresh, 10);
  EXPECT_EQ(result.total_traffic.count(),
            1'000'000 + 256 * 1024);  // one load, nothing else
}

TEST(SOptimalTest, RespectsCapacityWithFinalSizes) {
  // Object grows by updates; the static set must fit its final size.
  TraceBuilder b{{2'000'000}};
  for (int i = 0; i < 5; ++i) b.query({0}, 10'000'000);
  for (int i = 0; i < 5; ++i) b.update(0, 1'000'000);  // final 7 MB
  const auto trace = b.build();
  DeltaSystem system{&trace};
  SOptimalOptions opts;
  opts.cache_capacity = Bytes{5'000'000};  // smaller than the final size
  SOptimalPolicy policy{&system.cache(), &trace, opts};
  EXPECT_TRUE(policy.chosen().empty());
}

TEST(SOptimalTest, LoadsHappenBeforeFirstEvent) {
  TraceBuilder b{{1'000'000}};
  for (int i = 0; i < 5; ++i) b.query({0}, 2'000'000);
  const auto trace = b.build();
  DeltaSystem system{&trace};
  SOptimalOptions opts;
  opts.cache_capacity = Bytes{10'000'000};
  SOptimalPolicy policy{&system.cache(), &trace, opts};
  // Construction already performed the load.
  EXPECT_GT(system.meter().total(net::Mechanism::kObjectLoad).count(), 0);
  EXPECT_TRUE(system.cache().is_registered(ObjectId{0}));
}

TEST(SOptimalTest, LocalSearchNeverWorseThanHeuristic) {
  // Craft a case where proportional attribution misleads the heuristic:
  // queries touch {0,1} jointly; object 1 is large and update-heavy.
  TraceBuilder b{{1'000'000, 8'000'000, 1'000'000}};
  for (int i = 0; i < 20; ++i) b.query({0, 2}, 3'000'000);
  for (int i = 0; i < 10; ++i) b.update(1, 2'000'000);
  for (int i = 0; i < 4; ++i) b.query({1}, 1'000'000);
  const auto trace = b.build();

  const auto replay_cost = [&](bool local_search) {
    DeltaSystem system{&trace};
    SOptimalOptions opts;
    opts.cache_capacity = Bytes{10'000'000};
    opts.local_search = local_search;
    SOptimalPolicy policy{&system.cache(), &trace, opts};
    return sim::run_policy(trace, system, policy).total_traffic;
  };
  EXPECT_LE(replay_cost(true), replay_cost(false));
}

TEST(SOptimalTest, ShipsQueriesTouchingUnchosenObjects) {
  TraceBuilder b{{1'000'000, 1'000'000}};
  for (int i = 0; i < 10; ++i) b.query({0}, 2'000'000);
  b.query({0, 1}, 500);  // touches the unchosen object 1
  const auto trace = b.build();
  DeltaSystem system{&trace};
  SOptimalOptions opts;
  opts.cache_capacity = Bytes{1'500'000};  // fits only object 0
  SOptimalPolicy policy{&system.cache(), &trace, opts};
  ASSERT_EQ(policy.chosen(), std::vector<ObjectId>{ObjectId{0}});
  const auto result = sim::run_policy(trace, system, policy);
  EXPECT_EQ(result.shipped, 1);
  EXPECT_EQ(result.cache_fresh, 10);
}

}  // namespace
}  // namespace delta::core
