// Incremental minimum-weight vertex cover on a bipartite graph, via max-flow
// min-cut. This realizes Theorem 1 of the paper: for the internal interaction
// graph over cached objects, the optimal ship-queries-vs-ship-updates choice
// is the min-weight vertex cover, computable in polynomial time because the
// graph is bipartite (query nodes on one side, update nodes on the other).
//
// Construction (Hochbaum): source s -> update u with capacity w(u);
// update u -> query q with infinite capacity for each interaction;
// query q -> sink t with capacity w(q). After computing max flow, with S the
// set of nodes residual-reachable from s, the minimum-weight cover is
//   { u : u not in S }  ∪  { q : q in S }
// and its weight equals the max-flow value (LP duality).
//
// The solver is incremental in both directions:
//  * additions (new queries, updates, interaction edges) leave the previous
//    flow valid, so the next compute() only augments the difference;
//  * removals (the remainder-subgraph rule, object eviction/loading) cancel
//    the flow routed through the removed vertex before deleting it, leaving
//    a smaller but still feasible flow.
//
// compute() is also local. Augmenting paths never leave a connected
// component of the interaction graph, and after every compute() each
// component carries a maximum flow, so only the components touched since
// the last compute() can change. Every mutation records the vertices whose
// edges, weight or flow it changed (for a removal: the removed vertex's
// surviving neighbours); compute() gathers the union of their components,
// runs flow::Dinic restricted to that region, and re-derives the cover
// flags of the region's vertices only. Its cost is the size of the touched
// components, independent of how many untouched ones the remainder graph
// holds. The cover it reports is exactly the whole-graph one: the set S of
// vertices residual-reachable from s is the *minimal* source-side min cut,
// a flow-independent property of the network that decomposes over
// components (tests/min_cut_oracle.h recomputes it from scratch with
// Edmonds-Karp, and the differential tests compare the two).
#pragma once

#include <cstdint>
#include <vector>

#include "flow/dinic.h"
#include "flow/network.h"

namespace delta::flow {

class BipartiteCoverSolver {
 public:
  /// Opaque handle to an update-side vertex.
  struct UpdateNode {
    NodeIndex index = kNoNode;
    std::uint32_t generation = 0;
    [[nodiscard]] bool valid() const { return index != kNoNode; }
    friend bool operator==(UpdateNode, UpdateNode) = default;
  };
  /// Opaque handle to a query-side vertex.
  struct QueryNode {
    NodeIndex index = kNoNode;
    std::uint32_t generation = 0;
    [[nodiscard]] bool valid() const { return index != kNoNode; }
    friend bool operator==(QueryNode, QueryNode) = default;
  };

  BipartiteCoverSolver();

  // The internal max-flow engine points into the owned network; copying or
  // moving would leave it dangling.
  BipartiteCoverSolver(const BipartiteCoverSolver&) = delete;
  BipartiteCoverSolver& operator=(const BipartiteCoverSolver&) = delete;

  /// Adds an update vertex with weight w(u) (its network shipping cost).
  UpdateNode add_update(Capacity weight);

  /// Adds a query vertex with weight w(q) (its network shipping cost).
  QueryNode add_query(Capacity weight);

  /// Adds an interaction edge (u, q): answering q at the cache requires u.
  void connect(UpdateNode u, QueryNode q);

  /// Raises a vertex's weight in place (exact when merging two same-side
  /// vertices with identical neighborhoods: the min cover treats them as
  /// one vertex carrying their combined weight).
  void add_weight(QueryNode q, Capacity delta);
  void add_weight(UpdateNode u, Capacity delta);

  /// Current weight of a vertex.
  [[nodiscard]] Capacity weight(QueryNode q) const;
  [[nodiscard]] Capacity weight(UpdateNode u) const;

  /// Removes an update vertex, cancelling any flow routed through it. Its
  /// incident interaction edges disappear; affected queries stay.
  void remove_update(UpdateNode u);

  /// Removes a query vertex. The vertex must be isolated (all its
  /// interactions gone — e.g. its updates were shipped or its objects
  /// evicted); this is exactly the state in which the remainder rule
  /// discards query nodes.
  void remove_query(QueryNode q);

  /// Removes a query vertex even when it still has interaction edges,
  /// cancelling any flow routed through it (the "forget shipped queries"
  /// ablation — disabling the remainder rule's memory).
  void remove_query_force(QueryNode q);

  /// Visits the query vertices currently adjacent to u without allocating
  /// (needed on the replay hot path when u is shipped and removed).
  template <typename Fn>
  void for_each_neighbor(UpdateNode u, Fn&& fn) const {
    check_handle(u.index, u.generation, Side::kUpdate);
    for (EdgeId e = net_.first_edge(u.index); e != kNoEdge;
         e = net_.edge(e).next) {
      const auto& ed = net_.edge(e);
      if (ed.cap == 0) continue;  // the u->s anchor reverse
      fn(QueryNode{ed.to, vertex(ed.to).generation});
    }
  }

  /// Visits the update vertices currently adjacent to q without allocating
  /// (for neighborhood-signature maintenance when merging query vertices).
  template <typename Fn>
  void for_each_neighbor(QueryNode q, Fn&& fn) const {
    check_handle(q.index, q.generation, Side::kQuery);
    for (EdgeId e = net_.first_edge(q.index); e != kNoEdge;
         e = net_.edge(e).next) {
      const auto& ed = net_.edge(e);
      if (ed.cap > 0) continue;  // the q->t anchor
      fn(UpdateNode{ed.to, vertex(ed.to).generation});
    }
  }

  /// Allocating snapshots of the adjacency (tests / non-hot callers).
  [[nodiscard]] std::vector<QueryNode> neighbors(UpdateNode u) const;
  [[nodiscard]] std::vector<UpdateNode> neighbors(QueryNode q) const;

  /// Number of interaction edges currently incident to q.
  [[nodiscard]] std::size_t degree(QueryNode q) const;
  [[nodiscard]] std::size_t degree(UpdateNode u) const;

  /// Non-throwing liveness checks (a handle goes dead when its vertex is
  /// removed, even if the slot is later reused).
  [[nodiscard]] bool alive(QueryNode q) const;
  [[nodiscard]] bool alive(UpdateNode u) const;

  struct Cover {
    /// Every covered update vertex, most recently added first.
    std::vector<UpdateNode> updates;
    Capacity weight = 0;
  };

  /// Computes the minimum-weight vertex cover of the current graph,
  /// augmenting incrementally from the previous flow and re-solving only
  /// the components touched since the last call. The returned reference
  /// points at solver-owned scratch, valid until the next compute() call.
  /// Covered query vertices are read through in_last_cover().
  const Cover& compute();

  /// True when the given vertex was selected by the most recent compute().
  [[nodiscard]] bool in_last_cover(UpdateNode u) const;
  [[nodiscard]] bool in_last_cover(QueryNode q) const;

  [[nodiscard]] std::size_t update_count() const { return update_count_; }
  [[nodiscard]] std::size_t query_count() const { return query_count_; }
  [[nodiscard]] std::size_t interaction_count() const;
  /// Total flow out of the source (maintained, O(1)).
  [[nodiscard]] Capacity current_flow() const { return flow_total_; }
  [[nodiscard]] std::int64_t bfs_count() const { return dinic_.bfs_count(); }

  /// Cumulative vertices visited by compute(): the components it gathered
  /// plus the nodes its level builds dequeued. Read-only work counter; its
  /// growth per compute() is independent of untouched components.
  [[nodiscard]] std::int64_t vertices_scanned() const {
    return gathered_ + dinic_.nodes_scanned();
  }

  /// Validates that the last computed cover touches every interaction edge
  /// and that its weight equals the max-flow value. O(V+E); test hook.
  [[nodiscard]] bool last_cover_is_valid() const;

  /// Direct access to the underlying network (benchmarks, tests).
  [[nodiscard]] const FlowNetwork& network() const { return net_; }

 private:
  enum class Side : std::uint8_t { kFree, kUpdate, kQuery };
  struct Vertex {
    Side side = Side::kFree;
    bool in_cover = false;           // as of the last compute() touching it
    std::uint32_t generation = 0;    // bumped on removal
    EdgeId anchor = kNoEdge;         // s->u or q->t edge
    std::uint64_t added = 0;         // add order, for Cover::updates
    std::int32_t covered_slot = -1;  // index in covered_updates_, or -1
    std::uint32_t dirty_epoch = 0;   // == epoch_: listed in dirty_
    std::uint32_t region_epoch = 0;  // == epoch_: gathered by compute()
  };

  FlowNetwork net_;
  NodeIndex source_;
  NodeIndex sink_;
  Dinic dinic_;

  std::vector<Vertex> vertices_;  // indexed by NodeIndex
  std::size_t update_count_ = 0;
  std::size_t query_count_ = 0;
  std::uint64_t next_added_ = 0;
  Capacity flow_total_ = 0;    // flow out of the source
  Capacity cover_weight_ = 0;  // weight of the vertices flagged in_cover
  std::vector<NodeIndex> covered_updates_;  // update vertices in_cover
  bool cover_fresh_ = false;
  Cover cover_;  // compute() scratch, reused across calls

  // Vertices touched since the last compute(); epoch_ tells current marks
  // from stale ones so neither list needs clearing per vertex.
  std::uint32_t epoch_ = 1;
  std::vector<NodeIndex> dirty_;
  std::vector<NodeIndex> region_;    // compute() scratch
  std::vector<EdgeId> region_arcs_;  // the region updates' anchors
  std::int64_t gathered_ = 0;

  [[nodiscard]] const Vertex& vertex(NodeIndex v) const {
    return vertices_[static_cast<std::size_t>(v)];
  }
  Vertex& vertex(NodeIndex v) { return vertices_[static_cast<std::size_t>(v)]; }
  NodeIndex add_vertex(Side side, Capacity weight);
  void raise_weight(NodeIndex v, Capacity delta);
  void release_vertex(NodeIndex v);
  void mark_dirty(NodeIndex v);
  void set_cover(NodeIndex v, bool covered);
  void gather_region();
  void check_handle(NodeIndex v, std::uint32_t gen, Side side) const;
};

}  // namespace delta::flow
