// Incremental-vs-rebuild differential for the vertex-cover data plane: a
// long-lived BipartiteCoverSolver maintained incrementally through
// randomized update/query churn must produce covers byte-identical to a
// solver rebuilt from scratch on the current graph at every step. The
// cover is the minimal source-side min cut — a flow-independent property
// of the network — so any divergence means the incremental maintenance
// (flow cancellation on removal, weight raises, slot recycling) corrupted
// the graph, or a compute() skipped a component it should have re-solved.
// compute() runs every k-th step, so several components are dirty at once,
// and the churn splits components (removing a shared update) and merges
// them (connecting across). Each compute is also checked vertex by vertex
// against the from-scratch min-cut oracle. This is the property
// VCoverPolicy's per-decision sublinearity rests on: decisions may reuse
// yesterday's flow, and skip untouched components, precisely because both
// are observationally identical to a full rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "flow/bipartite_cover.h"
#include "min_cut_oracle.h"
#include "util/rng.h"

namespace delta::flow {
namespace {

using Solver = BipartiteCoverSolver;

/// Stable-label mirror of the live graph (the rebuild recipe).
struct Mirror {
  struct Update {
    std::int64_t label;
    Capacity weight;
    Solver::UpdateNode node;  // handle into the incremental solver
  };
  struct Query {
    std::int64_t label;
    Capacity weight;
    std::vector<std::int64_t> update_labels;  // sorted, unique
    Solver::QueryNode node;
  };
  std::vector<Update> updates;  // insertion order = label order
  std::vector<Query> queries;
};

/// Cover as sorted label lists — the representation compared across
/// solvers (handles are solver-specific; labels are not).
struct CoverLabels {
  std::vector<std::int64_t> updates;
  std::vector<std::int64_t> queries;
  Capacity weight = 0;
  friend bool operator==(const CoverLabels&, const CoverLabels&) = default;
};

template <typename Node, typename Entries>
std::int64_t label_of(Node node, const Entries& entries) {
  for (const auto& e : entries) {
    if (e.node == node) return e.label;
  }
  ADD_FAILURE() << "cover selected a vertex outside the mirror";
  return -1;
}

/// Covered updates come from the Cover list, covered queries from
/// in_last_cover() on every query handle the mirror holds.
CoverLabels labels_of(const Solver& solver, const Solver::Cover& cover,
                      const Mirror& mirror) {
  CoverLabels out;
  out.weight = cover.weight;
  for (const auto u : cover.updates) {
    out.updates.push_back(label_of(u, mirror.updates));
  }
  for (const auto& q : mirror.queries) {
    if (solver.in_last_cover(q.node)) out.queries.push_back(q.label);
  }
  std::sort(out.updates.begin(), out.updates.end());
  return out;
}

/// Rebuilds a fresh solver from the mirror and returns its cover labels.
CoverLabels rebuild_cover(const Mirror& mirror) {
  Solver fresh;
  std::vector<std::pair<std::int64_t, Solver::UpdateNode>> handles;
  Mirror rebuilt;
  for (const auto& u : mirror.updates) {
    Mirror::Update copy = u;
    copy.node = fresh.add_update(u.weight);
    rebuilt.updates.push_back(copy);
    handles.emplace_back(u.label, copy.node);
  }
  for (const auto& q : mirror.queries) {
    Mirror::Query copy = q;
    copy.node = fresh.add_query(q.weight);
    for (const std::int64_t ul : q.update_labels) {
      const auto it = std::find_if(
          handles.begin(), handles.end(),
          [ul](const auto& h) { return h.first == ul; });
      if (it == handles.end()) {
        ADD_FAILURE() << "dangling edge in mirror";
        continue;
      }
      fresh.connect(it->second, copy.node);
    }
    rebuilt.queries.push_back(copy);
  }
  const auto& cover = fresh.compute();
  EXPECT_TRUE(fresh.last_cover_is_valid());
  return labels_of(fresh, cover, rebuilt);
}

/// Checks the weight and in_last_cover() of every live handle against the
/// from-scratch min-cut oracle.
void expect_matches_oracle(const Solver& solver, const Solver::Cover& cover,
                           const Mirror& mirror, int step) {
  const oracle::MinCut cut = oracle::min_cut(solver);
  EXPECT_EQ(cover.weight, cut.flow) << "step " << step;
  for (const auto& u : mirror.updates) {
    EXPECT_EQ(solver.in_last_cover(u.node), cut.in_cover(u.node))
        << "step " << step << ": update label " << u.label;
  }
  for (const auto& q : mirror.queries) {
    EXPECT_EQ(solver.in_last_cover(q.node), cut.in_cover(q.node))
        << "step " << step << ": query label " << q.label;
  }
}

/// Connected component (over interaction edges) of every mirror label.
std::map<std::int64_t, std::int64_t> components_of(const Mirror& mirror) {
  std::map<std::int64_t, std::int64_t> parent;
  const auto find = [&parent](std::int64_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const auto& u : mirror.updates) parent[u.label] = u.label;
  for (const auto& q : mirror.queries) {
    parent[q.label] = q.label;
    for (const std::int64_t ul : q.update_labels) {
      parent[find(q.label)] = find(ul);
    }
  }
  std::map<std::int64_t, std::int64_t> component;
  for (const auto& [label, p] : parent) component[label] = find(label);
  return component;
}

/// Parameter: compute() runs every k-th step, so with k > 1 several
/// components (and several kinds of mutation) are dirty at once.
class VCoverDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(VCoverDifferentialTest, IncrementalCoverMatchesFullRebuildUnderChurn) {
  const int k = GetParam();
  Solver solver;
  Mirror mirror;
  util::Rng rng{0xD1FF + static_cast<std::uint64_t>(k)};
  std::int64_t next_label = 0;

  const auto drop_update_label = [&mirror](std::int64_t label) {
    for (auto& q : mirror.queries) {
      q.update_labels.erase(std::remove(q.update_labels.begin(),
                                        q.update_labels.end(), label),
                            q.update_labels.end());
    }
  };

  for (int step = 0; step < 400; ++step) {
    const std::int64_t op = rng.uniform_int(0, 11);
    if (op <= 3 || mirror.updates.empty()) {
      // Add an update vertex.
      Mirror::Update u;
      u.label = next_label++;
      u.weight = rng.uniform_int(1, 50);
      u.node = solver.add_update(u.weight);
      mirror.updates.push_back(u);
    } else if (op <= 6) {
      // Add a query vertex wired to a random subset of live updates.
      Mirror::Query q;
      q.label = next_label++;
      q.weight = rng.uniform_int(1, 50);
      q.node = solver.add_query(q.weight);
      const std::int64_t fanout = rng.uniform_int(
          1, std::min<std::int64_t>(
                 4, static_cast<std::int64_t>(mirror.updates.size())));
      for (std::int64_t f = 0; f < fanout; ++f) {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(mirror.updates.size()) - 1));
        const Mirror::Update& u = mirror.updates[pick];
        if (std::find(q.update_labels.begin(), q.update_labels.end(),
                      u.label) != q.update_labels.end()) {
          continue;  // keep edges unique
        }
        solver.connect(u.node, q.node);
        q.update_labels.push_back(u.label);
      }
      std::sort(q.update_labels.begin(), q.update_labels.end());
      mirror.queries.push_back(std::move(q));
    } else if (op == 7) {
      // Raise a random vertex's weight in place (the group-merge path).
      if (rng.bernoulli(0.5) && !mirror.queries.empty()) {
        auto& q = mirror.queries[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(mirror.queries.size()) - 1))];
        const Capacity delta = rng.uniform_int(1, 20);
        solver.add_weight(q.node, delta);
        q.weight += delta;
      } else {
        auto& u = mirror.updates[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(mirror.updates.size()) - 1))];
        const Capacity delta = rng.uniform_int(1, 20);
        solver.add_weight(u.node, delta);
        u.weight += delta;
      }
    } else if (op == 8) {
      // Remove an update (ship / evict): flow through it is cancelled and
      // its edges vanish from every query's neighborhood.
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(mirror.updates.size()) - 1));
      const std::int64_t label = mirror.updates[pick].label;
      solver.remove_update(mirror.updates[pick].node);
      mirror.updates.erase(mirror.updates.begin() +
                           static_cast<std::ptrdiff_t>(pick));
      drop_update_label(label);
    } else if (op == 9) {
      // Split a component: remove an update shared by two or more queries.
      std::vector<std::size_t> shared;
      for (std::size_t i = 0; i < mirror.updates.size(); ++i) {
        const std::int64_t label = mirror.updates[i].label;
        const auto users = std::count_if(
            mirror.queries.begin(), mirror.queries.end(),
            [label](const Mirror::Query& q) {
              return std::binary_search(q.update_labels.begin(),
                                        q.update_labels.end(), label);
            });
        if (users >= 2) shared.push_back(i);
      }
      if (!shared.empty()) {
        const std::size_t pick = shared[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(shared.size()) - 1))];
        const std::int64_t label = mirror.updates[pick].label;
        solver.remove_update(mirror.updates[pick].node);
        mirror.updates.erase(mirror.updates.begin() +
                             static_cast<std::ptrdiff_t>(pick));
        drop_update_label(label);
      }
    } else if (op == 10) {
      // Merge two components: connect a query to an update outside its
      // component.
      const auto component = components_of(mirror);
      for (int attempt = 0; attempt < 8 && !mirror.queries.empty();
           ++attempt) {
        auto& q = mirror.queries[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(mirror.queries.size()) - 1))];
        const auto& u = mirror.updates[static_cast<std::size_t>(
            rng.uniform_int(0,
                            static_cast<std::int64_t>(mirror.updates.size()) -
                                1))];
        if (component.at(q.label) == component.at(u.label)) continue;
        solver.connect(u.node, q.node);
        q.update_labels.insert(std::upper_bound(q.update_labels.begin(),
                                                q.update_labels.end(),
                                                u.label),
                               u.label);
        break;
      }
    } else if (!mirror.queries.empty()) {
      // Force-remove a query (the forget-shipped-queries ablation path).
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(mirror.queries.size()) - 1));
      solver.remove_query_force(mirror.queries[pick].node);
      mirror.queries.erase(mirror.queries.begin() +
                           static_cast<std::ptrdiff_t>(pick));
    }

    if (step % k != 0) continue;
    // Incremental cover vs full-rebuild cover, byte-identical, and every
    // live handle against the min-cut oracle.
    const auto& cover = solver.compute();
    ASSERT_TRUE(solver.last_cover_is_valid());
    expect_matches_oracle(solver, cover, mirror, step);
    const CoverLabels incremental = labels_of(solver, cover, mirror);
    const CoverLabels rebuilt = rebuild_cover(mirror);
    ASSERT_EQ(incremental, rebuilt) << "diverged at churn step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(ComputeEvery, VCoverDifferentialTest,
                         ::testing::Values(1, 3, 8));

// Removing u1 from {u1, u2} -> q cancels u1's flow and leaves u2's
// component below max flow. The next compute() is for an unrelated query,
// yet it must re-solve u2's component: q (5) no longer beats u2 (2).
TEST(VCoverDifferentialTest, RemovalReSolvesSurvivingNeighbours) {
  Solver solver;
  Mirror mirror;
  mirror.updates = {{0, 4, solver.add_update(4)}, {1, 2, solver.add_update(2)}};
  mirror.queries = {{2, 5, {0, 1}, solver.add_query(5)}};
  solver.connect(mirror.updates[0].node, mirror.queries[0].node);
  solver.connect(mirror.updates[1].node, mirror.queries[0].node);
  solver.compute();
  ASSERT_TRUE(solver.in_last_cover(mirror.queries[0].node));  // 5 < 4 + 2

  solver.remove_update(mirror.updates[0].node);  // no compute in between
  mirror.updates.erase(mirror.updates.begin());
  mirror.queries[0].update_labels = {1};
  mirror.updates.push_back({3, 7, solver.add_update(7)});
  mirror.queries.push_back({4, 9, {3}, solver.add_query(9)});
  solver.connect(mirror.updates[1].node, mirror.queries[1].node);

  const auto& cover = solver.compute();
  const Solver::UpdateNode u2 = mirror.updates[0].node;
  EXPECT_TRUE(solver.in_last_cover(u2));
  EXPECT_FALSE(solver.in_last_cover(mirror.queries[0].node));
  expect_matches_oracle(solver, cover, mirror, 0);
  EXPECT_EQ(labels_of(solver, cover, mirror), rebuild_cover(mirror));
}

}  // namespace
}  // namespace delta::flow
