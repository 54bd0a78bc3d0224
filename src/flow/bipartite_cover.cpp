#include "flow/bipartite_cover.h"

#include <algorithm>

namespace delta::flow {

BipartiteCoverSolver::BipartiteCoverSolver()
    : source_(net_.add_node()),
      sink_(net_.add_node()),
      dinic_(net_, source_, sink_) {
  vertices_.resize(static_cast<std::size_t>(sink_) + 1);
}

void BipartiteCoverSolver::check_handle(NodeIndex v, std::uint32_t gen,
                                        Side side) const {
  DELTA_CHECK_MSG(v >= 0 && static_cast<std::size_t>(v) < vertices_.size(),
                  "stale or invalid vertex handle");
  DELTA_CHECK_MSG(vertex(v).side == side, "vertex handle side mismatch");
  DELTA_CHECK_MSG(vertex(v).generation == gen,
                  "vertex handle generation mismatch (node was removed)");
}

void BipartiteCoverSolver::mark_dirty(NodeIndex v) {
  cover_fresh_ = false;
  Vertex& x = vertex(v);
  if (x.dirty_epoch == epoch_) return;
  x.dirty_epoch = epoch_;
  dirty_.push_back(v);
}

NodeIndex BipartiteCoverSolver::add_vertex(Side side, Capacity weight) {
  DELTA_CHECK(weight > 0);
  const NodeIndex v = net_.add_node();
  if (vertices_.size() <= static_cast<std::size_t>(v)) {
    vertices_.resize(static_cast<std::size_t>(v) + 1);
  }
  Vertex& x = vertex(v);
  x.side = side;
  x.added = next_added_++;
  x.anchor = side == Side::kUpdate ? net_.add_edge(source_, v, weight)
                                   : net_.add_edge(v, sink_, weight);
  mark_dirty(v);
  return v;
}

BipartiteCoverSolver::UpdateNode BipartiteCoverSolver::add_update(
    Capacity weight) {
  const NodeIndex v = add_vertex(Side::kUpdate, weight);
  ++update_count_;
  return UpdateNode{v, vertex(v).generation};
}

BipartiteCoverSolver::QueryNode BipartiteCoverSolver::add_query(
    Capacity weight) {
  const NodeIndex v = add_vertex(Side::kQuery, weight);
  ++query_count_;
  return QueryNode{v, vertex(v).generation};
}

void BipartiteCoverSolver::connect(UpdateNode u, QueryNode q) {
  check_handle(u.index, u.generation, Side::kUpdate);
  check_handle(q.index, q.generation, Side::kQuery);
  net_.add_edge(u.index, q.index, kInfiniteCapacity);
  mark_dirty(u.index);
  mark_dirty(q.index);
}

void BipartiteCoverSolver::raise_weight(NodeIndex v, Capacity delta) {
  DELTA_CHECK(delta > 0);
  const Vertex& x = vertex(v);
  net_.set_capacity(x.anchor, net_.edge(x.anchor).cap + delta);
  if (x.in_cover) cover_weight_ += delta;
  mark_dirty(v);
}

void BipartiteCoverSolver::add_weight(QueryNode q, Capacity delta) {
  check_handle(q.index, q.generation, Side::kQuery);
  raise_weight(q.index, delta);
}

void BipartiteCoverSolver::add_weight(UpdateNode u, Capacity delta) {
  check_handle(u.index, u.generation, Side::kUpdate);
  raise_weight(u.index, delta);
}

Capacity BipartiteCoverSolver::weight(QueryNode q) const {
  check_handle(q.index, q.generation, Side::kQuery);
  return net_.edge(vertex(q.index).anchor).cap;
}

Capacity BipartiteCoverSolver::weight(UpdateNode u) const {
  check_handle(u.index, u.generation, Side::kUpdate);
  return net_.edge(vertex(u.index).anchor).cap;
}

std::size_t BipartiteCoverSolver::degree(QueryNode q) const {
  check_handle(q.index, q.generation, Side::kQuery);
  std::size_t n = 0;
  for (EdgeId e = net_.first_edge(q.index); e != kNoEdge;
       e = net_.edge(e).next) {
    // q's incident list holds its q->t anchor (cap > 0) plus the reverse
    // (cap == 0) of every interaction edge u->q.
    if (net_.edge(e).cap == 0) ++n;
  }
  return n;
}

std::size_t BipartiteCoverSolver::degree(UpdateNode u) const {
  check_handle(u.index, u.generation, Side::kUpdate);
  std::size_t n = 0;
  for (EdgeId e = net_.first_edge(u.index); e != kNoEdge;
       e = net_.edge(e).next) {
    // u's incident list holds the reverse (cap == 0) of its s->u anchor plus
    // every forward interaction edge u->q (cap > 0).
    if (net_.edge(e).cap > 0) ++n;
  }
  return n;
}

bool BipartiteCoverSolver::alive(QueryNode q) const {
  return q.index >= 0 && static_cast<std::size_t>(q.index) < vertices_.size() &&
         vertex(q.index).side == Side::kQuery &&
         vertex(q.index).generation == q.generation;
}

bool BipartiteCoverSolver::alive(UpdateNode u) const {
  return u.index >= 0 && static_cast<std::size_t>(u.index) < vertices_.size() &&
         vertex(u.index).side == Side::kUpdate &&
         vertex(u.index).generation == u.generation;
}

void BipartiteCoverSolver::set_cover(NodeIndex v, bool covered) {
  Vertex& x = vertex(v);
  if (x.in_cover == covered) return;
  x.in_cover = covered;
  const Capacity w = net_.edge(x.anchor).cap;
  cover_weight_ += covered ? w : -w;
  if (x.side != Side::kUpdate) return;
  if (covered) {
    x.covered_slot = static_cast<std::int32_t>(covered_updates_.size());
    covered_updates_.push_back(v);
  } else {
    const NodeIndex last = covered_updates_.back();
    covered_updates_[static_cast<std::size_t>(x.covered_slot)] = last;
    vertex(last).covered_slot = x.covered_slot;
    covered_updates_.pop_back();
    x.covered_slot = -1;
  }
}

void BipartiteCoverSolver::release_vertex(NodeIndex v) {
  set_cover(v, false);
  net_.remove_node(v);
  Vertex& x = vertex(v);
  x.side = Side::kFree;
  ++x.generation;
  x.anchor = kNoEdge;
  cover_fresh_ = false;
}

void BipartiteCoverSolver::remove_update(UpdateNode u) {
  check_handle(u.index, u.generation, Side::kUpdate);
  const EdgeId anchor = vertex(u.index).anchor;
  // Cancel the flow routed through u: every unit entering via s->u leaves on
  // some interaction edge u->q and then on q's anchor q->t. Walking the
  // interaction edges and backing their flow out of the affected query
  // anchors restores a feasible (smaller) flow with u flow-free. Every
  // neighbour is re-solved by the next compute(): its component lost flow
  // or was split.
  Capacity cancelled = 0;
  for (EdgeId e = net_.first_edge(u.index); e != kNoEdge;
       e = net_.edge(e).next) {
    const auto& ed = net_.edge(e);
    if (ed.cap == 0) continue;  // the u->s reverse of the anchor
    const NodeIndex q = ed.to;
    mark_dirty(q);
    const Capacity phi = ed.flow;
    if (phi <= 0) continue;
    net_.add_flow(e, -phi);
    net_.add_flow(vertex(q).anchor, -phi);
    cancelled += phi;
  }
  DELTA_CHECK_MSG(net_.edge(anchor).flow == cancelled,
                  "flow conservation broken at removed update vertex");
  net_.add_flow(anchor, -cancelled);
  flow_total_ -= cancelled;
  release_vertex(u.index);
  --update_count_;
}

void BipartiteCoverSolver::remove_query(QueryNode q) {
  check_handle(q.index, q.generation, Side::kQuery);
  DELTA_CHECK_MSG(degree(q) == 0,
                  "remove_query requires an isolated query vertex");
  DELTA_CHECK_MSG(net_.edge(vertex(q.index).anchor).flow == 0,
                  "isolated query vertex still carries flow");
  release_vertex(q.index);
  --query_count_;
}

void BipartiteCoverSolver::remove_query_force(QueryNode q) {
  check_handle(q.index, q.generation, Side::kQuery);
  const EdgeId anchor = vertex(q.index).anchor;
  // Cancel flow along every s -> u -> q path through this vertex.
  Capacity cancelled = 0;
  for (EdgeId e = net_.first_edge(q.index); e != kNoEdge;
       e = net_.edge(e).next) {
    const auto& ed = net_.edge(e);
    if (ed.cap > 0) continue;  // the q->t anchor itself
    const NodeIndex u = ed.to;
    mark_dirty(u);
    // Reverse of an interaction edge u->q; its flow is -flow(u->q).
    const Capacity phi = -ed.flow;
    if (phi <= 0) continue;
    net_.add_flow(e ^ 1, -phi);  // the forward u->q edge
    net_.add_flow(vertex(u).anchor, -phi);
    cancelled += phi;
  }
  DELTA_CHECK_MSG(net_.edge(anchor).flow == cancelled,
                  "flow conservation broken at removed query vertex");
  net_.add_flow(anchor, -cancelled);
  flow_total_ -= cancelled;
  release_vertex(q.index);
  --query_count_;
}

std::vector<BipartiteCoverSolver::QueryNode> BipartiteCoverSolver::neighbors(
    UpdateNode u) const {
  std::vector<QueryNode> out;
  for_each_neighbor(u, [&out](QueryNode q) { out.push_back(q); });
  return out;
}

std::vector<BipartiteCoverSolver::UpdateNode> BipartiteCoverSolver::neighbors(
    QueryNode q) const {
  std::vector<UpdateNode> out;
  for_each_neighbor(q, [&out](UpdateNode u) { out.push_back(u); });
  return out;
}

void BipartiteCoverSolver::gather_region() {
  region_.clear();
  region_arcs_.clear();
  const auto enter = [this](NodeIndex v) {
    Vertex& x = vertex(v);
    if (x.side == Side::kFree || x.region_epoch == epoch_) return;
    x.region_epoch = epoch_;
    region_.push_back(v);
    if (x.side == Side::kUpdate) region_arcs_.push_back(x.anchor);
  };
  for (const NodeIndex v : dirty_) enter(v);
  // Close the dirty vertices under interaction edges: the anchors lead to
  // the source and sink, which belong to no component.
  for (std::size_t i = 0; i < region_.size(); ++i) {
    for (EdgeId e = net_.first_edge(region_[i]); e != kNoEdge;
         e = net_.edge(e).next) {
      const NodeIndex w = net_.edge(e).to;
      if (w != source_ && w != sink_) enter(w);
    }
  }
  gathered_ += static_cast<std::int64_t>(region_.size());
}

const BipartiteCoverSolver::Cover& BipartiteCoverSolver::compute() {
  gather_region();
  flow_total_ += dinic_.run_to_max(region_arcs_);
#ifndef NDEBUG
  // The final level build stayed inside the region (components are closed
  // under residual arcs other than the source's and sink's).
  for (const NodeIndex v : dinic_.last_reached()) {
    DELTA_DCHECK(vertex(v).region_epoch == epoch_);
  }
#endif

  // Re-derive the region's cover flags from the min cut: an update is
  // covered when the source cannot reach it, a query when it can.
  Capacity region_cover = 0;
  Capacity region_flow = 0;
  for (const NodeIndex v : region_) {
    const Vertex& x = vertex(v);
    const bool reached = dinic_.reachable(v);
    const bool covered = x.side == Side::kUpdate ? !reached : reached;
    set_cover(v, covered);
    const auto& anchor = net_.edge(x.anchor);
    if (covered) region_cover += anchor.cap;
    if (x.side == Side::kUpdate) region_flow += anchor.flow;
  }
  DELTA_CHECK_MSG(region_cover == region_flow,
                  "min-cut/max-flow duality violated on the re-solved "
                  "components: cover weight "
                      << region_cover << " vs flow " << region_flow);
  DELTA_CHECK_MSG(cover_weight_ == flow_total_,
                  "min-cut/max-flow duality violated: cover weight "
                      << cover_weight_ << " vs flow " << flow_total_);
  DELTA_DCHECK(flow_total_ == net_.outflow(source_));

  dirty_.clear();
  if (++epoch_ == 0) {
    // Wrapped: clear every mark so no stale one reads as current.
    for (Vertex& x : vertices_) x.dirty_epoch = x.region_epoch = 0;
    epoch_ = 1;
  }
  cover_fresh_ = true;

  // Most recently added first: UpdateManager ships groups in this order,
  // and over a WAN transport the order sets message timing.
  cover_.updates.clear();
  for (const NodeIndex u : covered_updates_) {
    cover_.updates.push_back(UpdateNode{u, vertex(u).generation});
  }
  std::sort(cover_.updates.begin(), cover_.updates.end(),
            [this](UpdateNode a, UpdateNode b) {
              return vertex(a.index).added > vertex(b.index).added;
            });
  cover_.weight = cover_weight_;
  return cover_;
}

bool BipartiteCoverSolver::in_last_cover(UpdateNode u) const {
  DELTA_CHECK_MSG(cover_fresh_, "cover queried after the graph changed");
  check_handle(u.index, u.generation, Side::kUpdate);
  return vertex(u.index).in_cover;
}

bool BipartiteCoverSolver::in_last_cover(QueryNode q) const {
  DELTA_CHECK_MSG(cover_fresh_, "cover queried after the graph changed");
  check_handle(q.index, q.generation, Side::kQuery);
  return vertex(q.index).in_cover;
}

std::size_t BipartiteCoverSolver::interaction_count() const {
  return net_.active_edge_count() - update_count_ - query_count_;
}

bool BipartiteCoverSolver::last_cover_is_valid() const {
  if (!cover_fresh_) return false;
  Capacity weight = 0;
  for (EdgeId e = net_.first_edge(source_); e != kNoEdge;
       e = net_.edge(e).next) {
    const NodeIndex u = net_.edge(e).to;
    const bool u_in_cover = vertex(u).in_cover;
    if (u_in_cover) weight += net_.edge(e).cap;
    // Every interaction edge u->q must be covered.
    for (EdgeId ie = net_.first_edge(u); ie != kNoEdge;
         ie = net_.edge(ie).next) {
      const auto& ied = net_.edge(ie);
      if (ied.cap == 0) continue;
      if (!u_in_cover && !vertex(ied.to).in_cover) return false;
    }
  }
  for (EdgeId e = net_.first_edge(sink_); e != kNoEdge;
       e = net_.edge(e).next) {
    const NodeIndex q = net_.edge(e).to;
    if (vertex(q).in_cover) weight += net_.edge(vertex(q).anchor).cap;
  }
  return weight == net_.outflow(source_) && weight == cover_weight_;
}

}  // namespace delta::flow
