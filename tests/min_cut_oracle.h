// Test oracle: the minimum-weight vertex cover of a BipartiteCoverSolver's
// current graph, taken from scratch. It runs Edmonds-Karp on a zero-flow
// copy of the solver's network, then a residual BFS from the source; the
// reached set S is the minimal source-side min cut, and the cover is
//   { u : u not in S }  ∪  { q : q in S }.
// It shares nothing with the solver's incremental path (no kept flow, no
// component regions, no Dinic), so an incremental solver that agrees with
// it on every vertex is observationally a full re-solve.
#pragma once

#include <cstddef>
#include <vector>

#include "flow/bipartite_cover.h"
#include "flow/edmonds_karp.h"

namespace delta::flow::oracle {

struct MinCut {
  std::vector<bool> source_side;  // indexed by NodeIndex
  Capacity flow = 0;

  [[nodiscard]] bool in_cover(BipartiteCoverSolver::UpdateNode u) const {
    return !source_side[static_cast<std::size_t>(u.index)];
  }
  [[nodiscard]] bool in_cover(BipartiteCoverSolver::QueryNode q) const {
    return source_side[static_cast<std::size_t>(q.index)];
  }
};

/// The solver's source and sink are the first two nodes its network adds.
inline MinCut min_cut(const BipartiteCoverSolver& solver) {
  constexpr NodeIndex kSource = 0;
  constexpr NodeIndex kSink = 1;
  FlowNetwork net = solver.network().zero_flow_copy();
  MinCut cut;
  cut.flow = max_flow_edmonds_karp(net, kSource, kSink);
  cut.source_side.assign(net.node_bound(), false);
  std::vector<NodeIndex> queue{kSource};
  cut.source_side[kSource] = true;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    for (EdgeId e = net.first_edge(queue[i]); e != kNoEdge;
         e = net.edge(e).next) {
      const NodeIndex w = net.edge(e).to;
      if (net.residual(e) <= 0 || cut.source_side[static_cast<std::size_t>(w)]) {
        continue;
      }
      cut.source_side[static_cast<std::size_t>(w)] = true;
      queue.push_back(w);
    }
  }
  return cut;
}

}  // namespace delta::flow::oracle
