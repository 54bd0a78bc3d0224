#include "core/update_manager.h"

#include <gtest/gtest.h>

#include "trace_builder.h"

namespace delta::core {
namespace {

using testing::TraceBuilder;

TEST(UpdateManagerTest, FreshObjectsNeedNoDecision) {
  TraceBuilder b{{100, 100}};
  b.query({0, 1}, 50);
  const auto trace = b.build();
  UpdateManager mgr{trace.initial_object_bytes.size(), true};
  const auto d = mgr.decide(trace.queries[0]);
  EXPECT_FALSE(d.ship_query);
  EXPECT_TRUE(d.ship_updates.empty());
  EXPECT_EQ(mgr.graph_query_count(), 0u);  // fast path adds no vertex
}

TEST(UpdateManagerTest, CheapUpdateShippedForExpensiveQuery) {
  TraceBuilder b{{100}};
  b.update(0, 10);
  b.query({0}, 500);
  const auto trace = b.build();
  UpdateManager mgr{trace.initial_object_bytes.size(), true};
  mgr.add_outstanding(trace.updates[0]);
  EXPECT_TRUE(mgr.is_stale(ObjectId{0}));
  const auto d = mgr.decide(trace.queries[0]);
  EXPECT_FALSE(d.ship_query);
  ASSERT_EQ(d.ship_updates.size(), 1u);
  EXPECT_EQ(d.ship_updates[0]->id, trace.updates[0].id);
  EXPECT_FALSE(mgr.is_stale(ObjectId{0}));
  // Remainder rule: both vertices are gone.
  EXPECT_EQ(mgr.graph_query_count(), 0u);
  EXPECT_EQ(mgr.graph_update_count(), 0u);
}

TEST(UpdateManagerTest, CheapQueryShippedAgainstExpensiveUpdate) {
  TraceBuilder b{{100}};
  b.update(0, 500);
  b.query({0}, 10);
  const auto trace = b.build();
  UpdateManager mgr{trace.initial_object_bytes.size(), true};
  mgr.add_outstanding(trace.updates[0]);
  const auto d = mgr.decide(trace.queries[0]);
  EXPECT_TRUE(d.ship_query);
  EXPECT_TRUE(d.ship_updates.empty());
  EXPECT_TRUE(mgr.is_stale(ObjectId{0}));  // update still outstanding
  // Shipped query stays in the remainder graph (ski-rental memory).
  EXPECT_EQ(mgr.graph_query_count(), 1u);
  EXPECT_EQ(mgr.graph_update_count(), 1u);
}

TEST(UpdateManagerTest, SkiRentalFlipsAfterEnoughQueries) {
  // Update of cost 100 vs queries of cost 40: the first two queries ship
  // (40 < 100, then 80 < 100), the third flips the cover (120 > 100).
  TraceBuilder b{{100}};
  b.update(0, 100);
  b.query({0}, 40);
  b.query({0}, 40);
  b.query({0}, 40);
  const auto trace = b.build();
  UpdateManager mgr{trace.initial_object_bytes.size(), true};
  mgr.add_outstanding(trace.updates[0]);

  const auto d1 = mgr.decide(trace.queries[0]);
  EXPECT_TRUE(d1.ship_query);
  const auto d2 = mgr.decide(trace.queries[1]);
  EXPECT_TRUE(d2.ship_query);
  const auto d3 = mgr.decide(trace.queries[2]);
  EXPECT_FALSE(d3.ship_query);
  ASSERT_EQ(d3.ship_updates.size(), 1u);
  // After shipping, the old query vertices become isolated and are pruned.
  EXPECT_EQ(mgr.graph_query_count(), 0u);
  EXPECT_EQ(mgr.graph_update_count(), 0u);
}

TEST(UpdateManagerTest, WithoutShippedQueryMemoryNoFlipHappens) {
  TraceBuilder b{{100}};
  b.update(0, 100);
  for (int i = 0; i < 6; ++i) b.query({0}, 40);
  const auto trace = b.build();
  UpdateManager mgr{trace.initial_object_bytes.size(),
                    /*remember_shipped_queries=*/false};
  mgr.add_outstanding(trace.updates[0]);
  for (int i = 0; i < 6; ++i) {
    const auto d = mgr.decide(trace.queries[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(d.ship_query) << "query " << i;
    EXPECT_TRUE(d.ship_updates.empty());
  }
  EXPECT_EQ(mgr.graph_query_count(), 0u);  // forgotten immediately
}

TEST(UpdateManagerTest, StalenessToleranceExcludesRecentUpdates) {
  TraceBuilder b{{100}};
  b.update(0, 50);                    // time 0
  b.query({0}, 10, /*tolerance=*/5);  // time 1: update within tolerance
  const auto trace = b.build();
  UpdateManager mgr{trace.initial_object_bytes.size(), true};
  mgr.add_outstanding(trace.updates[0]);
  const auto d = mgr.decide(trace.queries[0]);
  // The only outstanding update arrived within t(q): nothing to do.
  EXPECT_FALSE(d.ship_query);
  EXPECT_TRUE(d.ship_updates.empty());
  EXPECT_EQ(mgr.graph_query_count(), 0u);
}

TEST(UpdateManagerTest, OldUpdateStillBindsUnderTolerance) {
  TraceBuilder b{{100}};
  b.update(0, 5);  // time 0
  for (int i = 0; i < 10; ++i) b.query({0}, 100);  // advance time
  b.query({0}, 100, /*tolerance=*/3);  // time 11, update at 0 needed
  const auto trace = b.build();
  UpdateManager mgr{trace.initial_object_bytes.size(), true};
  mgr.add_outstanding(trace.updates[0]);
  const auto d = mgr.decide(trace.queries.back());
  // Cheap update against an expensive query: ship the update.
  EXPECT_FALSE(d.ship_query);
  ASSERT_EQ(d.ship_updates.size(), 1u);
}

TEST(UpdateManagerTest, MultiObjectQueryInteractsAcrossObjects) {
  TraceBuilder b{{100, 100, 100}};
  b.update(0, 30);
  b.update(1, 30);
  b.query({0, 1, 2}, 40);
  const auto trace = b.build();
  UpdateManager mgr{trace.initial_object_bytes.size(), true};
  mgr.add_outstanding(trace.updates[0]);
  mgr.add_outstanding(trace.updates[1]);
  const auto d = mgr.decide(trace.queries[0]);
  // Query (40) vs both updates (60): ship the query.
  EXPECT_TRUE(d.ship_query);
  EXPECT_TRUE(d.ship_updates.empty());
  // A second identical query accumulates: 80 > 60 flips to updates.
  TraceBuilder b2{{100, 100, 100}};
  b2.update(0, 30);
  b2.update(1, 30);
  b2.query({0, 1, 2}, 40);
  b2.query({0, 1, 2}, 40);
  const auto trace2 = b2.build();
  UpdateManager mgr2{trace.initial_object_bytes.size(), true};
  mgr2.add_outstanding(trace2.updates[0]);
  mgr2.add_outstanding(trace2.updates[1]);
  (void)mgr2.decide(trace2.queries[0]);
  const auto d2 = mgr2.decide(trace2.queries[1]);
  EXPECT_FALSE(d2.ship_query);
  EXPECT_EQ(d2.ship_updates.size(), 2u);
}

TEST(UpdateManagerTest, DropObjectRemovesItsUpdatesAndPrunes) {
  TraceBuilder b{{100, 100}};
  b.update(0, 500);
  b.update(1, 500);
  b.query({0, 1}, 10);
  const auto trace = b.build();
  UpdateManager mgr{trace.initial_object_bytes.size(), true};
  mgr.add_outstanding(trace.updates[0]);
  mgr.add_outstanding(trace.updates[1]);
  const auto d = mgr.decide(trace.queries[0]);
  EXPECT_TRUE(d.ship_query);
  EXPECT_EQ(mgr.graph_update_count(), 2u);
  EXPECT_EQ(mgr.graph_query_count(), 1u);

  mgr.drop_object(ObjectId{0});  // evicted
  EXPECT_FALSE(mgr.is_stale(ObjectId{0}));
  EXPECT_TRUE(mgr.is_stale(ObjectId{1}));
  EXPECT_EQ(mgr.graph_update_count(), 1u);
  EXPECT_EQ(mgr.graph_query_count(), 1u);  // still tied to object 1's update

  mgr.drop_object(ObjectId{1});
  EXPECT_EQ(mgr.graph_update_count(), 0u);
  EXPECT_EQ(mgr.graph_query_count(), 0u);  // became isolated, pruned
}

TEST(UpdateManagerTest, PartialCoversShipOnlyJustifiedUpdates) {
  // Two updates on different objects; queries hammer object 0 only. The
  // cover should ship object 0's update but keep object 1's outstanding.
  TraceBuilder b{{100, 100}};
  b.update(0, 50);
  b.update(1, 50);
  b.query({0}, 80);
  const auto trace = b.build();
  UpdateManager mgr{trace.initial_object_bytes.size(), true};
  mgr.add_outstanding(trace.updates[0]);
  mgr.add_outstanding(trace.updates[1]);
  const auto d = mgr.decide(trace.queries[0]);
  EXPECT_FALSE(d.ship_query);
  ASSERT_EQ(d.ship_updates.size(), 1u);
  EXPECT_EQ(d.ship_updates[0]->object, ObjectId{0});
  EXPECT_TRUE(mgr.is_stale(ObjectId{1}));
}

TEST(UpdateManagerTest, GraphStatsTrackPeak) {
  TraceBuilder b{{100}};
  b.update(0, 1000);
  b.update(0, 1000);
  b.query({0}, 10);
  const auto trace = b.build();
  UpdateManager mgr{trace.initial_object_bytes.size(), true};
  mgr.add_outstanding(trace.updates[0]);
  mgr.add_outstanding(trace.updates[1]);
  (void)mgr.decide(trace.queries[0]);
  // Both pending updates of the object materialize as ONE group vertex.
  EXPECT_EQ(mgr.peak_graph_nodes(), 2u);
  EXPECT_EQ(mgr.covers_computed(), 1);
  EXPECT_GT(mgr.flow_bfs_count(), 0);
}

TEST(UpdateManagerTest, GroupedUpdatesShipTogether) {
  // Two cheap updates on the same object against an expensive query: the
  // group (cost 20+30=50) is covered and both members ship together.
  TraceBuilder b{{100}};
  b.update(0, 20);
  b.update(0, 30);
  b.query({0}, 500);
  const auto trace = b.build();
  UpdateManager mgr{trace.initial_object_bytes.size(), true};
  mgr.add_outstanding(trace.updates[0]);
  mgr.add_outstanding(trace.updates[1]);
  const auto d = mgr.decide(trace.queries[0]);
  EXPECT_FALSE(d.ship_query);
  EXPECT_EQ(d.ship_updates.size(), 2u);
  EXPECT_FALSE(mgr.is_stale(ObjectId{0}));
}

TEST(UpdateManagerTest, TolerancePrefixMaterializesLazily) {
  // Query 1 (tolerance 2, at time 2) needs only the first update: the
  // second stays pending outside the graph. Query 2 (strict, at time 3)
  // needs both: the pending remainder extends the object's group vertex.
  TraceBuilder b{{100}};
  b.update(0, 40);                 // time 0
  b.update(0, 40);                 // time 1
  b.query({0}, 10, /*tol=*/2);     // time 2: needs update at 0 only
  b.query({0}, 10);                // time 3: needs everything
  const auto trace = b.build();
  UpdateManager mgr{trace.initial_object_bytes.size(), true};
  mgr.add_outstanding(trace.updates[0]);
  mgr.add_outstanding(trace.updates[1]);
  const auto d1 = mgr.decide(trace.queries[0]);
  EXPECT_TRUE(d1.ship_query);  // 10 < 40
  EXPECT_EQ(mgr.graph_update_count(), 1u);  // only the needed prefix
  EXPECT_EQ(mgr.graph_interaction_count(), 1u);
  const auto d2 = mgr.decide(trace.queries[1]);
  EXPECT_TRUE(d2.ship_query);
  // Still one group vertex per object, now carrying both updates (80) and
  // one merged query vertex carrying both shipped queries (20).
  EXPECT_EQ(mgr.graph_update_count(), 1u);
  EXPECT_EQ(mgr.graph_query_count(), 1u);
}

}  // namespace
}  // namespace delta::core
