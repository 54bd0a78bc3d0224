// Edmonds–Karp max-flow with incremental re-use of an existing feasible flow.
//
// When vertices/edges are added the previous flow remains valid (just
// possibly not maximum), so each invocation only searches for the
// *additional* augmenting paths — the paper's argument for incremental
// cover computation (Fig. 5, §4). Production covers run on flow::Dinic
// (see flow/bipartite_cover.h); this independent implementation is the
// oracle the tests check them against (tests/min_cut_oracle.h) and the
// from-scratch baseline of the flow micro benchmark.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/network.h"

namespace delta::flow {

class EdmondsKarp {
 public:
  /// Binds to a network whose flow it will maintain. The network may gain
  /// and lose nodes/edges between calls as long as the flow stays feasible.
  EdmondsKarp(FlowNetwork& net, NodeIndex source, NodeIndex sink);

  /// Augments the current flow to a maximum flow; returns the flow added by
  /// this call (zero when the existing flow was already maximum).
  Capacity run_to_max();

  /// Current total flow out of the source.
  [[nodiscard]] Capacity total_flow() const;

  /// Recomputes residual reachability from the source; afterwards
  /// `reachable(v)` answers membership in the source side of a min cut.
  void compute_reachability();
  [[nodiscard]] bool reachable(NodeIndex v) const;

  /// Cumulative number of augmenting-path searches (BFS runs), for the
  /// incremental-vs-scratch micro benchmark.
  [[nodiscard]] std::int64_t bfs_count() const { return bfs_count_; }

 private:
  FlowNetwork* net_;
  NodeIndex source_;
  NodeIndex sink_;

  // Epoch-stamped scratch space reused across BFS runs (no per-call
  // allocation in the middleware hot path).
  std::vector<std::uint32_t> visit_epoch_;
  std::vector<EdgeId> parent_edge_;
  std::vector<NodeIndex> queue_;
  std::uint32_t epoch_ = 0;
  std::int64_t bfs_count_ = 0;

  void ensure_scratch();
  bool bfs_to_sink();  // fills parent_edge_; true when sink reached
};

/// From-scratch max flow (zeroes nothing: assumes the given network's flow is
/// the starting point; pass net.zero_flow_copy() for a cold run). Returns the
/// final total flow.
Capacity max_flow_edmonds_karp(FlowNetwork& net, NodeIndex source,
                               NodeIndex sink);

}  // namespace delta::flow
