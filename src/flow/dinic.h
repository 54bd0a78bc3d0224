// Dinic's max-flow algorithm (level graph + blocking flow), in two forms:
//
//  * class Dinic — the incremental engine behind BipartiteCoverSolver's
//    cover computation. It augments whatever feasible flow the network
//    currently carries, and it works on a *region*: the caller names the
//    source arcs to search from, and every level build and blocking-flow
//    pass stays inside what those arcs reach (the sink is a target, never
//    expanded). BipartiteCoverSolver passes the anchors of the interaction-
//    graph components touched since its last compute, so a compute costs
//    the size of those components, not of the whole network. Levels are
//    stamped with a per-build generation instead of being cleared, and the
//    final, failed level build of a run is the residual reachability that
//    defines the min cut: reachable() reads it directly. All scratch is
//    owned by the engine and reused across calls.
//
//  * max_flow_dinic — the one-shot free function over every source arc,
//    kept as an oracle for correctness tests and the flow micro benchmark
//    (ablation A6).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "flow/network.h"

namespace delta::flow {

class Dinic {
 public:
  /// Binds to a network whose flow it will maintain. The network may gain
  /// and lose nodes/edges between calls as long as the flow stays feasible.
  Dinic(FlowNetwork& net, NodeIndex source, NodeIndex sink);

  /// Augments the current flow to a maximum flow over the region reached
  /// from `source_arcs` (edges leaving the source) without passing through
  /// the source or the sink; returns the flow added by this call. The
  /// caller must name every source arc of that region, or the result is a
  /// maximum flow of a smaller network. Afterwards reachable() answers
  /// source-side min-cut membership for every node of the region.
  Capacity run_to_max(std::span<const EdgeId> source_arcs);

  /// True when v was residual-reachable from the source in the final level
  /// build of the last run_to_max(). Nodes outside that run's region read
  /// false.
  [[nodiscard]] bool reachable(NodeIndex v) const;

  /// The nodes the final level build of the last run_to_max() reached, in
  /// BFS order (the source excluded).
  [[nodiscard]] std::span<const NodeIndex> last_reached() const {
    return queue_;
  }

  /// Cumulative number of level-graph BFS builds (the engine's unit of
  /// search work; the incremental-cover micro benchmark reports it per
  /// query).
  [[nodiscard]] std::int64_t bfs_count() const { return bfs_count_; }

  /// Cumulative number of nodes the level builds dequeued.
  [[nodiscard]] std::int64_t nodes_scanned() const { return nodes_scanned_; }

 private:
  FlowNetwork* net_;
  NodeIndex source_;
  NodeIndex sink_;

  // Scratch reused across calls; grown (never shrunk) to node_bound().
  // level_[v] is meaningful only while stamp_[v] == stamp_now_.
  std::vector<int> level_;
  std::vector<std::uint32_t> stamp_;
  std::vector<EdgeId> current_arc_;
  std::vector<NodeIndex> queue_;
  std::uint32_t stamp_now_ = 0;
  std::int64_t bfs_count_ = 0;
  std::int64_t nodes_scanned_ = 0;

  [[nodiscard]] bool labelled(NodeIndex v) const {
    return stamp_[static_cast<std::size_t>(v)] == stamp_now_;
  }
  [[nodiscard]] int level(NodeIndex v) const {
    return labelled(v) ? level_[static_cast<std::size_t>(v)] : -1;
  }
  void label(NodeIndex v, int level);
  bool build_levels(std::span<const EdgeId> source_arcs);
  Capacity push_blocking(NodeIndex v, Capacity limit);
};

/// Augments the network's current flow to a maximum flow using Dinic's
/// algorithm and returns the final total flow out of `source`.
Capacity max_flow_dinic(FlowNetwork& net, NodeIndex source, NodeIndex sink);

}  // namespace delta::flow
