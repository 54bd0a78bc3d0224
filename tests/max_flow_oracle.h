// Test oracle: Edmonds–Karp max-flow with incremental re-use of an existing
// feasible flow.
//
// When vertices/edges are added the previous flow remains valid (just
// possibly not maximum), so each invocation only searches for the
// *additional* augmenting paths — the paper's argument for incremental
// cover computation (Fig. 5, §4). Production covers run on flow::Dinic
// (see flow/bipartite_cover.h); this independent BFS implementation is the
// max-flow the flow tests check Dinic against, directly and through
// min_cut_oracle.h.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "flow/network.h"
#include "util/check.h"

namespace delta::flow::oracle {

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

 private:
  FlowNetwork* net_;
  NodeIndex source_;
  NodeIndex sink_;

  // Epoch-stamped scratch space reused across BFS runs.
  std::vector<std::uint32_t> visit_epoch_;
  std::vector<EdgeId> parent_edge_;
  std::vector<NodeIndex> queue_;
  std::uint32_t epoch_ = 0;

  void ensure_scratch();
  bool bfs_to_sink();  // fills parent_edge_; true when sink reached
};

inline EdmondsKarp::EdmondsKarp(FlowNetwork& net, NodeIndex source,
                                NodeIndex sink)
    : net_(&net), source_(source), sink_(sink) {
  DELTA_CHECK(net.is_active(source));
  DELTA_CHECK(net.is_active(sink));
  DELTA_CHECK(source != sink);
}

inline void EdmondsKarp::ensure_scratch() {
  const std::size_t bound = net_->node_bound();
  if (visit_epoch_.size() < bound) {
    visit_epoch_.resize(bound, 0);
    parent_edge_.resize(bound, kNoEdge);
  }
}

inline bool EdmondsKarp::bfs_to_sink() {
  ensure_scratch();
  ++epoch_;
  queue_.clear();
  queue_.push_back(source_);
  visit_epoch_[static_cast<std::size_t>(source_)] = epoch_;
  for (std::size_t qi = 0; qi < queue_.size(); ++qi) {
    const NodeIndex v = queue_[qi];
    for (EdgeId e = net_->first_edge(v); e != kNoEdge;
         e = net_->edge(e).next) {
      if (net_->residual(e) <= 0) continue;
      const NodeIndex w = net_->edge(e).to;
      auto& stamp = visit_epoch_[static_cast<std::size_t>(w)];
      if (stamp == epoch_) continue;
      stamp = epoch_;
      parent_edge_[static_cast<std::size_t>(w)] = e;
      if (w == sink_) return true;
      queue_.push_back(w);
    }
  }
  return false;
}

inline Capacity EdmondsKarp::run_to_max() {
  Capacity added = 0;
  while (bfs_to_sink()) {
    // Bottleneck along the parent chain.
    Capacity bottleneck = kInfiniteCapacity;
    for (NodeIndex v = sink_; v != source_;) {
      const EdgeId e = parent_edge_[static_cast<std::size_t>(v)];
      bottleneck = std::min(bottleneck, net_->residual(e));
      v = net_->edge(e).from;
    }
    DELTA_CHECK(bottleneck > 0);
    for (NodeIndex v = sink_; v != source_;) {
      const EdgeId e = parent_edge_[static_cast<std::size_t>(v)];
      net_->add_flow(e, bottleneck);
      v = net_->edge(e).from;
    }
    added += bottleneck;
  }
  return added;
}

inline Capacity EdmondsKarp::total_flow() const {
  return net_->outflow(source_);
}

inline void EdmondsKarp::compute_reachability() {
  ensure_scratch();
  ++epoch_;
  queue_.clear();
  queue_.push_back(source_);
  visit_epoch_[static_cast<std::size_t>(source_)] = epoch_;
  for (std::size_t qi = 0; qi < queue_.size(); ++qi) {
    const NodeIndex v = queue_[qi];
    for (EdgeId e = net_->first_edge(v); e != kNoEdge;
         e = net_->edge(e).next) {
      if (net_->residual(e) <= 0) continue;
      const NodeIndex w = net_->edge(e).to;
      auto& stamp = visit_epoch_[static_cast<std::size_t>(w)];
      if (stamp == epoch_) continue;
      stamp = epoch_;
      queue_.push_back(w);
    }
  }
}

inline bool EdmondsKarp::reachable(NodeIndex v) const {
  DELTA_DCHECK(v >= 0 &&
               static_cast<std::size_t>(v) < visit_epoch_.size());
  return visit_epoch_[static_cast<std::size_t>(v)] == epoch_;
}

/// From-scratch max flow (zeroes nothing: assumes the given network's flow is
/// the starting point; pass net.zero_flow_copy() for a cold run). Returns the
/// final total flow.
inline Capacity max_flow_edmonds_karp(FlowNetwork& net, NodeIndex source,
                               NodeIndex sink) {
  EdmondsKarp ek{net, source, sink};
  ek.run_to_max();
  return ek.total_flow();
}

}  // namespace delta::flow::oracle
