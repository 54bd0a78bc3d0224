// Property-based validation of the incremental min-weight vertex cover:
//  * cover weight equals a brute-force minimum on random small graphs;
//  * the cover stays valid (every edge covered) under random incremental
//    add/remove workloads mimicking the UpdateManager's remainder pruning;
//  * incremental flow equals from-scratch flow after every mutation batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "flow/bipartite_cover.h"
#include "max_flow_oracle.h"
#include "min_cut_oracle.h"
#include "util/rng.h"

namespace delta::flow {
namespace {

using UpdateNode = BipartiteCoverSolver::UpdateNode;
using QueryNode = BipartiteCoverSolver::QueryNode;

struct RandomGraph {
  std::vector<Capacity> update_weights;
  std::vector<Capacity> query_weights;
  std::vector<std::pair<std::size_t, std::size_t>> edges;  // (update, query)
};

RandomGraph make_random_graph(util::Rng& rng, std::size_t max_side) {
  RandomGraph g;
  const auto nu = static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(max_side)));
  const auto nq = static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(max_side)));
  for (std::size_t i = 0; i < nu; ++i) {
    g.update_weights.push_back(rng.uniform_int(1, 30));
  }
  for (std::size_t i = 0; i < nq; ++i) {
    g.query_weights.push_back(rng.uniform_int(1, 30));
  }
  for (std::size_t u = 0; u < nu; ++u) {
    for (std::size_t q = 0; q < nq; ++q) {
      if (rng.bernoulli(0.4)) g.edges.emplace_back(u, q);
    }
  }
  return g;
}

/// Exponential-time exact minimum-weight vertex cover over update subsets:
/// choosing the update subset determines the forced query side (any query
/// with an uncovered incident edge must be picked).
Capacity brute_force_cover(const RandomGraph& g) {
  const std::size_t nu = g.update_weights.size();
  Capacity best = kInfiniteCapacity;
  for (std::uint64_t mask = 0; mask < (1ULL << nu); ++mask) {
    Capacity weight = 0;
    for (std::size_t u = 0; u < nu; ++u) {
      if (mask & (1ULL << u)) weight += g.update_weights[u];
    }
    std::vector<bool> query_needed(g.query_weights.size(), false);
    for (const auto& [u, q] : g.edges) {
      if (!(mask & (1ULL << u))) query_needed[q] = true;
    }
    for (std::size_t q = 0; q < g.query_weights.size(); ++q) {
      if (query_needed[q]) weight += g.query_weights[q];
    }
    best = std::min(best, weight);
  }
  return best;
}

class CoverPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoverPropertyTest, MatchesBruteForceMinimum) {
  util::Rng rng{GetParam()};
  for (int trial = 0; trial < 25; ++trial) {
    const RandomGraph g = make_random_graph(rng, 7);
    BipartiteCoverSolver solver;
    std::vector<UpdateNode> us;
    std::vector<QueryNode> qs;
    us.reserve(g.update_weights.size());
    qs.reserve(g.query_weights.size());
    for (const Capacity w : g.update_weights) us.push_back(solver.add_update(w));
    for (const Capacity w : g.query_weights) qs.push_back(solver.add_query(w));
    for (const auto& [u, q] : g.edges) solver.connect(us[u], qs[q]);
    const auto cover = solver.compute();
    EXPECT_EQ(cover.weight, brute_force_cover(g)) << "trial " << trial;
    EXPECT_TRUE(solver.last_cover_is_valid());
  }
}

TEST_P(CoverPropertyTest, IncrementalEqualsScratchUnderChurn) {
  util::Rng rng{GetParam() * 977};
  BipartiteCoverSolver solver;
  std::vector<UpdateNode> live_updates;
  std::vector<QueryNode> live_queries;

  for (int step = 0; step < 120; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.35 || live_updates.empty()) {
      live_updates.push_back(solver.add_update(rng.uniform_int(1, 40)));
    } else if (roll < 0.7 || live_queries.empty()) {
      const auto q = solver.add_query(rng.uniform_int(1, 40));
      live_queries.push_back(q);
      // Connect to a few random live updates.
      const auto conns = rng.uniform_int(0, 3);
      for (std::int64_t c = 0; c < conns; ++c) {
        const auto ui = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live_updates.size()) - 1));
        solver.connect(live_updates[ui], live_queries.back());
      }
    } else if (roll < 0.85) {
      // Remove a random update (simulates shipping or eviction).
      const auto ui = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live_updates.size()) - 1));
      solver.remove_update(live_updates[ui]);
      live_updates.erase(live_updates.begin() +
                         static_cast<std::ptrdiff_t>(ui));
      // Prune isolated queries, as the remainder rule does.
      for (std::size_t i = live_queries.size(); i-- > 0;) {
        if (solver.degree(live_queries[i]) == 0) {
          solver.remove_query(live_queries[i]);
          live_queries.erase(live_queries.begin() +
                             static_cast<std::ptrdiff_t>(i));
        }
      }
    }

    if (step % 5 == 0) {
      const auto cover = solver.compute();
      EXPECT_TRUE(solver.last_cover_is_valid()) << "step " << step;
      // Incremental flow value must match a from-scratch computation.
      FlowNetwork scratch = solver.network().zero_flow_copy();
      // Locate source/sink: they are nodes 0 and 1 by construction order.
      const Capacity scratch_flow = oracle::max_flow_edmonds_karp(scratch, 0, 1);
      EXPECT_EQ(cover.weight, scratch_flow) << "step " << step;
    }
  }
}

TEST_P(CoverPropertyTest, CoverWeightNeverExceedsEitherSide) {
  util::Rng rng{GetParam() * 31 + 7};
  for (int trial = 0; trial < 20; ++trial) {
    const RandomGraph g = make_random_graph(rng, 8);
    BipartiteCoverSolver solver;
    std::vector<UpdateNode> us;
    std::vector<QueryNode> qs;
    Capacity touched_updates = 0;
    Capacity touched_queries = 0;
    std::vector<bool> utouched(g.update_weights.size(), false);
    std::vector<bool> qtouched(g.query_weights.size(), false);
    for (const Capacity w : g.update_weights) us.push_back(solver.add_update(w));
    for (const Capacity w : g.query_weights) qs.push_back(solver.add_query(w));
    for (const auto& [u, q] : g.edges) {
      solver.connect(us[u], qs[q]);
      if (!utouched[u]) {
        utouched[u] = true;
        touched_updates += g.update_weights[u];
      }
      if (!qtouched[q]) {
        qtouched[q] = true;
        touched_queries += g.query_weights[q];
      }
    }
    const auto cover = solver.compute();
    // Taking all touched updates, or all touched queries, are both valid
    // covers; the minimum can be no worse.
    EXPECT_LE(cover.weight, touched_updates);
    EXPECT_LE(cover.weight, touched_queries);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ------------------------------------------------------------------------
// Differential suite: the incremental production solver against the
// from-scratch oracle (tests/min_cut_oracle.h: Edmonds-Karp on a zero-flow
// copy, then a residual BFS) on every randomized incremental add/remove
// sequence — not only on the max-flow value and cover weight, but on the
// exact cover membership of every live vertex: the extracted cover is the
// *minimal* source-side min cut, a flow-independent property of the
// network, so keeping flow across computes and re-solving only touched
// components must yield the same vertex set. This is the invariant that
// keeps the sim golden tables byte-identical.

class EngineDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {
};

/// The solver plus the handles of its live vertices.
struct Tracked {
  BipartiteCoverSolver solver;
  std::vector<UpdateNode> updates;
  std::vector<QueryNode> queries;

  void remove_update(std::size_t u) {
    solver.remove_update(updates[u]);
    updates.erase(updates.begin() + static_cast<std::ptrdiff_t>(u));
  }
  void remove_query_force(std::size_t q) {
    solver.remove_query_force(queries[q]);
    queries.erase(queries.begin() + static_cast<std::ptrdiff_t>(q));
  }
  void prune_isolated_queries() {
    for (std::size_t i = queries.size(); i-- > 0;) {
      if (solver.degree(queries[i]) == 0) {
        solver.remove_query(queries[i]);
        queries.erase(queries.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  }

  void expect_matches_oracle(int step) {
    const auto& cover = solver.compute();
    const oracle::MinCut cut = oracle::min_cut(solver);
    EXPECT_EQ(cover.weight, cut.flow) << "step " << step;
    EXPECT_EQ(solver.current_flow(), cut.flow) << "step " << step;
    EXPECT_TRUE(solver.last_cover_is_valid()) << "step " << step;
    std::vector<UpdateNode> covered;
    for (const UpdateNode u : updates) {
      EXPECT_EQ(solver.in_last_cover(u), cut.in_cover(u))
          << "step " << step << ": update " << u.index;
      if (cut.in_cover(u)) covered.push_back(u);
    }
    for (const QueryNode q : queries) {
      EXPECT_EQ(solver.in_last_cover(q), cut.in_cover(q))
          << "step " << step << ": query " << q.index;
    }
    // Cover::updates lists exactly the covered updates, newest first; the
    // handles were appended in add order.
    std::reverse(covered.begin(), covered.end());
    EXPECT_EQ(cover.updates, covered) << "step " << step;
  }
};

TEST_P(EngineDifferentialTest, IncrementalSolverMatchesOracleUnderChurn) {
  util::Rng rng{GetParam() * 7919 + 3};
  Tracked t;

  for (int step = 0; step < 150; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.30 || t.updates.empty()) {
      t.updates.push_back(t.solver.add_update(rng.uniform_int(1, 50)));
    } else if (roll < 0.60 || t.queries.empty()) {
      t.queries.push_back(t.solver.add_query(rng.uniform_int(1, 50)));
      const auto conns = rng.uniform_int(0, 3);
      for (std::int64_t c = 0; c < conns; ++c) {
        const auto ui = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(t.updates.size()) - 1));
        t.solver.connect(t.updates[ui], t.queries.back());
      }
    } else if (roll < 0.80) {
      // Ship/evict an update group, then prune isolated queries — the
      // remainder-rule shape UpdateManager drives.
      const auto ui = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(t.updates.size()) - 1));
      t.remove_update(ui);
      t.prune_isolated_queries();
    } else if (!t.queries.empty() && roll < 0.88) {
      // The forget-shipped-queries ablation shape.
      const auto qi = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(t.queries.size()) - 1));
      t.remove_query_force(qi);
    } else if (!t.queries.empty()) {
      // Weight growth (query-vertex merging adds weight in place).
      const auto qi = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(t.queries.size()) - 1));
      t.solver.add_weight(t.queries[qi], rng.uniform_int(1, 20));
    }

    if (step % 4 == 0) {
      t.expect_matches_oracle(step);
    }
  }
  t.expect_matches_oracle(150);
}

// A same-weight tie that a naive "any min cut" extraction could break
// differently: two disjoint (update, query) pairs with equal weights. The
// minimal source-side cut puts every saturated update OUT of the reachable
// set, so the solver must pick the update vertices, as the oracle does.
TEST(EngineDifferentialTest, EqualWeightTiesResolveIdentically) {
  Tracked t;
  t.updates = {t.solver.add_update(10), t.solver.add_update(10)};
  t.queries = {t.solver.add_query(10), t.solver.add_query(10)};
  t.solver.connect(t.updates[0], t.queries[0]);
  t.solver.connect(t.updates[1], t.queries[1]);
  t.expect_matches_oracle(0);
  EXPECT_EQ(t.solver.compute().weight, 20);
  EXPECT_TRUE(t.solver.in_last_cover(t.updates[0]));
  EXPECT_TRUE(t.solver.in_last_cover(t.updates[1]));
  EXPECT_FALSE(t.solver.in_last_cover(t.queries[0]));
  EXPECT_FALSE(t.solver.in_last_cover(t.queries[1]));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u, 55u, 89u));

}  // namespace
}  // namespace delta::flow
