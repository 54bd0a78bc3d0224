#include "flow/bipartite_cover.h"

#include <gtest/gtest.h>

#include <vector>

namespace delta::flow {
namespace {

using UpdateNode = BipartiteCoverSolver::UpdateNode;
using QueryNode = BipartiteCoverSolver::QueryNode;

TEST(BipartiteCoverTest, EmptyGraphHasEmptyCover) {
  BipartiteCoverSolver solver;
  const auto cover = solver.compute();
  EXPECT_TRUE(cover.updates.empty());
  EXPECT_EQ(cover.weight, 0);
}

TEST(BipartiteCoverTest, IsolatedVerticesNeverCovered) {
  BipartiteCoverSolver solver;
  const auto u = solver.add_update(5);
  const auto q = solver.add_query(7);
  const auto cover = solver.compute();
  EXPECT_EQ(cover.weight, 0);
  EXPECT_TRUE(cover.updates.empty());
  EXPECT_FALSE(solver.in_last_cover(u));
  EXPECT_FALSE(solver.in_last_cover(q));
}

TEST(BipartiteCoverTest, SingleEdgePicksCheaperSide) {
  {
    BipartiteCoverSolver solver;
    const auto u = solver.add_update(3);
    const auto q = solver.add_query(10);
    solver.connect(u, q);
    const auto cover = solver.compute();
    EXPECT_EQ(cover.weight, 3);
    ASSERT_EQ(cover.updates.size(), 1u);
    EXPECT_EQ(cover.updates[0], u);
    EXPECT_FALSE(solver.in_last_cover(q));
    EXPECT_TRUE(solver.last_cover_is_valid());
  }
  {
    BipartiteCoverSolver solver;
    const auto u = solver.add_update(10);
    const auto q = solver.add_query(3);
    solver.connect(u, q);
    const auto cover = solver.compute();
    EXPECT_EQ(cover.weight, 3);
    EXPECT_TRUE(cover.updates.empty());
    EXPECT_TRUE(solver.in_last_cover(q));
    EXPECT_TRUE(solver.last_cover_is_valid());
  }
}

// The paper's ski-rental intuition: a cheap update facing many queries is
// shipped once enough query weight has accumulated against it.
TEST(BipartiteCoverTest, UpdateChosenOnceQueriesAccumulate) {
  BipartiteCoverSolver solver;
  const auto u = solver.add_update(10);
  const auto q1 = solver.add_query(6);
  solver.connect(u, q1);
  auto cover = solver.compute();
  // One query of weight 6 < 10: cheaper to ship the query.
  EXPECT_EQ(cover.weight, 6);
  EXPECT_TRUE(solver.in_last_cover(q1));

  const auto q2 = solver.add_query(6);
  solver.connect(u, q2);
  cover = solver.compute();
  // Two queries of total weight 12 > 10: now ship the update.
  EXPECT_EQ(cover.weight, 10);
  ASSERT_EQ(cover.updates.size(), 1u);
  EXPECT_EQ(cover.updates[0], u);
  EXPECT_FALSE(solver.in_last_cover(q1));
  EXPECT_FALSE(solver.in_last_cover(q2));
}

TEST(BipartiteCoverTest, PaperExampleInternalGraph) {
  // Fig. 2's internal interaction graph: u1(1 GB), u6(2 GB) vs q7(3 GB),
  // with edges (u1,q7), (u6,q7). Covering with q7 costs 3; covering with
  // {u1, u6} also costs 3 — both optimal. The cover weight must be 3.
  BipartiteCoverSolver solver;
  const auto u1 = solver.add_update(1);
  const auto u6 = solver.add_update(2);
  const auto q7 = solver.add_query(3);
  solver.connect(u1, q7);
  solver.connect(u6, q7);
  const auto cover = solver.compute();
  EXPECT_EQ(cover.weight, 3);
  EXPECT_TRUE(solver.last_cover_is_valid());
}

TEST(BipartiteCoverTest, StarOfExpensiveQueries) {
  BipartiteCoverSolver solver;
  const auto u = solver.add_update(100);
  std::vector<QueryNode> queries;
  for (int i = 0; i < 5; ++i) {
    const auto q = solver.add_query(10);
    solver.connect(u, q);
    queries.push_back(q);
  }
  // 5 * 10 = 50 < 100: ship the queries.
  const auto cover = solver.compute();
  EXPECT_EQ(cover.weight, 50);
  for (const auto q : queries) EXPECT_TRUE(solver.in_last_cover(q));
  EXPECT_TRUE(cover.updates.empty());
}

TEST(BipartiteCoverTest, RemoveUpdateCancelsFlow) {
  BipartiteCoverSolver solver;
  const auto u = solver.add_update(5);
  const auto q = solver.add_query(20);
  solver.connect(u, q);
  auto cover = solver.compute();
  EXPECT_EQ(cover.weight, 5);

  solver.remove_update(u);
  EXPECT_EQ(solver.update_count(), 0u);
  EXPECT_EQ(solver.current_flow(), 0);
  cover = solver.compute();
  EXPECT_EQ(cover.weight, 0);

  // q is now isolated and removable.
  EXPECT_EQ(solver.degree(q), 0u);
  solver.remove_query(q);
  EXPECT_EQ(solver.query_count(), 0u);
}

TEST(BipartiteCoverTest, RemoveQueryRequiresIsolation) {
  BipartiteCoverSolver solver;
  const auto u = solver.add_update(5);
  const auto q = solver.add_query(20);
  solver.connect(u, q);
  EXPECT_THROW(solver.remove_query(q), std::logic_error);
  solver.remove_update(u);
  solver.remove_query(q);  // fine once isolated
}

TEST(BipartiteCoverTest, StaleHandleRejected) {
  BipartiteCoverSolver solver;
  const auto u = solver.add_update(5);
  const auto q = solver.add_query(20);
  solver.connect(u, q);
  solver.remove_update(u);
  EXPECT_THROW(solver.connect(u, q), std::logic_error);
  // Slot reuse must not resurrect the old handle.
  const auto u2 = solver.add_update(7);
  EXPECT_THROW(solver.connect(u, q), std::logic_error);
  solver.connect(u2, q);
}

TEST(BipartiteCoverTest, RemainderStyleWorkflow) {
  // Simulates the UpdateManager lifecycle: queries arrive one by one; after
  // each cover, covered updates are shipped (removed) and un-covered queries
  // are pruned once isolated.
  BipartiteCoverSolver solver;
  const auto u1 = solver.add_update(8);
  const auto u2 = solver.add_update(3);

  const auto qa = solver.add_query(5);
  solver.connect(u1, qa);
  solver.connect(u2, qa);
  auto cover = solver.compute();
  // Options: qa (5) vs u1+u2 (11) vs mixed (u2+qa would double-count qa).
  EXPECT_EQ(cover.weight, 5);
  EXPECT_TRUE(solver.in_last_cover(qa));  // ship qa; updates stay outstanding
  EXPECT_TRUE(cover.updates.empty());

  const auto qb = solver.add_query(9);
  solver.connect(u1, qb);
  auto cover2 = solver.compute();
  // Edges: (u1,qa),(u2,qa),(u1,qb). qa already shipped (still weight 5).
  // Min cover: {u1, qa?}: u1=8 covers (u1,qa),(u1,qb); (u2,qa) needs u2 or
  // qa. Candidates: u1+u2=11, u1+qa=13, qa+qb=14, u2+qb... qb=9 covers only
  // (u1,qb); qa=5 covers (u1,qa),(u2,qa). So qa+qb=14, u1+u2=11,
  // u2+qb=12, u1+qa=13 -> minimum is 11.
  EXPECT_EQ(cover2.weight, 11);
  EXPECT_EQ(cover2.updates.size(), 2u);
  EXPECT_TRUE(solver.last_cover_is_valid());

  // Ship both updates; queries become isolated and are pruned.
  solver.remove_update(u1);
  solver.remove_update(u2);
  EXPECT_EQ(solver.degree(qa), 0u);
  EXPECT_EQ(solver.degree(qb), 0u);
  solver.remove_query(qa);
  solver.remove_query(qb);
  EXPECT_EQ(solver.interaction_count(), 0u);
  EXPECT_EQ(solver.compute().weight, 0);
}

TEST(BipartiteCoverTest, InLastCoverMatchesCoverLists) {
  BipartiteCoverSolver solver;
  const auto u1 = solver.add_update(2);
  const auto u2 = solver.add_update(50);
  const auto q1 = solver.add_query(30);
  const auto q2 = solver.add_query(3);
  solver.connect(u1, q1);
  solver.connect(u2, q2);
  const auto cover = solver.compute();
  // Expect u1 (2 < 30) and q2 (3 < 50).
  EXPECT_EQ(cover.weight, 5);
  EXPECT_TRUE(solver.in_last_cover(u1));
  EXPECT_FALSE(solver.in_last_cover(u2));
  EXPECT_FALSE(solver.in_last_cover(q1));
  EXPECT_TRUE(solver.in_last_cover(q2));
}

TEST(BipartiteCoverTest, CoverQueryAfterMutationRejected) {
  BipartiteCoverSolver solver;
  const auto u = solver.add_update(2);
  const auto q = solver.add_query(30);
  solver.connect(u, q);
  solver.compute();
  solver.add_update(4);  // mutation invalidates the cached cover
  EXPECT_THROW((void)solver.in_last_cover(u), std::logic_error);
}

TEST(BipartiteCoverTest, InteractionCountTracksEdges) {
  BipartiteCoverSolver solver;
  const auto u = solver.add_update(1);
  const auto q1 = solver.add_query(1);
  const auto q2 = solver.add_query(1);
  EXPECT_EQ(solver.interaction_count(), 0u);
  solver.connect(u, q1);
  solver.connect(u, q2);
  EXPECT_EQ(solver.interaction_count(), 2u);
  solver.remove_update(u);
  EXPECT_EQ(solver.interaction_count(), 0u);
}

// compute() re-solves only the components touched since the previous call:
// with K disjoint remembered (update, shipped query) pairs already solved,
// adding one more pair costs the same vertex visits whatever K is.
TEST(BipartiteCoverTest, ComputeWorkIndependentOfUntouchedComponents) {
  const auto scanned_for_one_more_pair = [](int k) {
    BipartiteCoverSolver solver;
    for (int i = 0; i < k; ++i) {
      const auto u = solver.add_update(10);
      const auto q = solver.add_query(4);  // cheaper: q ships, u stays
      solver.connect(u, q);
    }
    solver.compute();
    const std::int64_t before = solver.vertices_scanned();
    const auto u = solver.add_update(10);
    const auto q = solver.add_query(4);
    solver.connect(u, q);
    const auto& cover = solver.compute();
    EXPECT_EQ(cover.weight, 4 * (k + 1));
    EXPECT_TRUE(solver.in_last_cover(q));
    EXPECT_FALSE(solver.in_last_cover(u));
    return solver.vertices_scanned() - before;
  };
  const std::int64_t small = scanned_for_one_more_pair(16);
  const std::int64_t large = scanned_for_one_more_pair(4096);
  EXPECT_EQ(small, large);
  EXPECT_GT(small, 0);
  EXPECT_LE(small, 12);
}

// Cover::updates lists covered update vertices most recently added first —
// the order UpdateManager ships groups in — whatever their slot indices,
// and including covered updates of components the compute did not touch.
TEST(BipartiteCoverTest, CoveredUpdatesListedNewestFirst) {
  BipartiteCoverSolver solver;
  const auto old_u = solver.add_update(1);
  const auto old_q = solver.add_query(50);
  solver.connect(old_u, old_q);
  ASSERT_EQ(solver.compute().updates.size(), 1u);

  const auto freed = solver.add_update(1);
  const auto a = solver.add_update(2);
  solver.remove_update(freed);
  const auto b = solver.add_update(3);  // reuses freed's (lower) slot
  ASSERT_LT(b.index, a.index);
  const auto c = solver.add_update(4);
  const auto q = solver.add_query(100);
  solver.connect(a, q);
  solver.connect(b, q);
  solver.connect(c, q);
  const auto& cover = solver.compute();
  EXPECT_EQ(cover.weight, 1 + 2 + 3 + 4);
  EXPECT_EQ(cover.updates,
            (std::vector<UpdateNode>{c, b, a, old_u}));
  EXPECT_FALSE(solver.in_last_cover(q));
  EXPECT_FALSE(solver.in_last_cover(old_q));
}

}  // namespace
}  // namespace delta::flow
