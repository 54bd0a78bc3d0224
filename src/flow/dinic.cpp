#include "flow/dinic.h"

#include <algorithm>

namespace delta::flow {

Dinic::Dinic(FlowNetwork& net, NodeIndex source, NodeIndex sink)
    : net_(&net), source_(source), sink_(sink) {
  DELTA_CHECK(net.is_active(source));
  DELTA_CHECK(net.is_active(sink));
  DELTA_CHECK(source != sink);
}

void Dinic::label(NodeIndex v, int level) {
  stamp_[static_cast<std::size_t>(v)] = stamp_now_;
  level_[static_cast<std::size_t>(v)] = level;
}

bool Dinic::build_levels(std::span<const EdgeId> source_arcs) {
  const std::size_t bound = net_->node_bound();
  if (stamp_.size() < bound) {
    level_.resize(bound);
    stamp_.resize(bound, 0);
    current_arc_.resize(bound, kNoEdge);
  }
  if (++stamp_now_ == 0) {
    // Wrapped: a stamp from 2^32 builds ago would read as current.
    std::fill(stamp_.begin(), stamp_.end(), 0);
    stamp_now_ = 1;
  }
  ++bfs_count_;
  queue_.clear();
  label(source_, 0);
  for (const EdgeId a : source_arcs) {
    DELTA_DCHECK(net_->edge(a).from == source_);
    const NodeIndex w = net_->edge(a).to;
    if (net_->residual(a) <= 0 || labelled(w)) continue;
    label(w, 1);
    queue_.push_back(w);
  }
  for (std::size_t qi = 0; qi < queue_.size(); ++qi) {
    const NodeIndex v = queue_[qi];
    // The sink is a target only: expanding it would leave the region, and
    // nothing past it lies on a shortest augmenting path.
    if (v == sink_) continue;
    const int next = level_[static_cast<std::size_t>(v)] + 1;
    for (EdgeId e = net_->first_edge(v); e != kNoEdge;
         e = net_->edge(e).next) {
      if (net_->residual(e) <= 0) continue;
      const NodeIndex w = net_->edge(e).to;
      if (labelled(w)) continue;
      label(w, next);
      queue_.push_back(w);
    }
  }
  nodes_scanned_ += static_cast<std::int64_t>(queue_.size());
  return labelled(sink_);
}

Capacity Dinic::push_blocking(NodeIndex v, Capacity limit) {
  if (v == sink_) return limit;
  EdgeId& arc = current_arc_[static_cast<std::size_t>(v)];
  const int next = level(v) + 1;
  while (arc != kNoEdge) {
    const auto& ed = net_->edge(arc);
    if (net_->residual(arc) > 0 && level(ed.to) == next) {
      const Capacity pushed =
          push_blocking(ed.to, std::min(limit, net_->residual(arc)));
      if (pushed > 0) {
        net_->add_flow(arc, pushed);
        return pushed;
      }
    }
    arc = ed.next;
  }
  return 0;
}

Capacity Dinic::run_to_max(std::span<const EdgeId> source_arcs) {
  Capacity added = 0;
  while (build_levels(source_arcs)) {
    // Reset the per-node arc cursors only for nodes the BFS reached — the
    // blocking-flow DFS never leaves the level graph.
    for (const NodeIndex v : queue_) {
      current_arc_[static_cast<std::size_t>(v)] = net_->first_edge(v);
    }
    // The source's arc cursor is the position in `source_arcs`.
    for (const EdgeId a : source_arcs) {
      const NodeIndex w = net_->edge(a).to;
      if (level(w) != 1) continue;
      while (net_->residual(a) > 0) {
        const Capacity pushed = push_blocking(w, net_->residual(a));
        if (pushed == 0) break;
        net_->add_flow(a, pushed);
        added += pushed;
      }
    }
  }
  // The failed build labelled exactly the residual-reachable nodes: the
  // min-cut side reachable() hands out.
  return added;
}

bool Dinic::reachable(NodeIndex v) const {
  DELTA_DCHECK(v >= 0 && static_cast<std::size_t>(v) < stamp_.size());
  return labelled(v);
}

Capacity max_flow_dinic(FlowNetwork& net, NodeIndex source, NodeIndex sink) {
  std::vector<EdgeId> arcs;
  for (EdgeId e = net.first_edge(source); e != kNoEdge; e = net.edge(e).next) {
    arcs.push_back(e);
  }
  Dinic dinic{net, source, sink};
  dinic.run_to_max(arcs);
  return net.outflow(source);
}

}  // namespace delta::flow
