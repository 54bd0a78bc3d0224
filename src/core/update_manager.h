// UpdateManager (paper Fig. 4): the online ship-query-vs-ship-updates
// decision for queries whose objects are all cached.
//
// It maintains the internal interaction graph incrementally: outstanding
// updates on cached objects enter the graph lazily when a query first needs
// them; each arriving query becomes a query vertex with edges to the
// updates it interacts with (filtered by its staleness tolerance); the
// minimum-weight vertex cover — computed by incremental max-flow — dictates
// the shipping decision. After every cover the remainder rule applies:
// covered updates are shipped and removed, queries that became isolated are
// pruned, and shipped queries stay to justify future update shipping
// (ski-rental memory). Setting remember_shipped_queries=false disables that
// memory (ablation A4).
//
// Two exact graph reductions keep the remainder graph bounded by *active
// staleness*, not by trace length (without them the graph grows
// quadratically on update-heavy objects):
//
//  * One update-group vertex per object. All materialized outstanding
//    updates of an object form a single vertex whose weight is their total
//    shipping cost; newly needed updates extend it. Members ship together,
//    so currency is always met; at worst a cover ships updates slightly
//    newer than a tolerant query strictly required, which the tolerance
//    semantics permit (fresher-than-required answers are valid).
//
//  * Same-neighborhood query merging. Shipped query vertices with an
//    identical set of update neighbors are interchangeable in any vertex
//    cover, so they are merged into one vertex carrying their summed
//    weight. This is cover-exact. Neighborhood signatures are re-keyed when
//    groups are removed, merging again on collision.
#pragma once

#include <limits>
#include <map>
#include <vector>

#include "flow/bipartite_cover.h"
#include "util/prefetch.h"
#include "util/types.h"
#include "workload/events.h"

namespace delta::core {

class UpdateManager {
 public:
  /// Tracks object ids in [0, object_count).
  UpdateManager(std::size_t object_count, bool remember_shipped_queries);

  /// Records an outstanding (un-shipped) update for a cached object.
  void add_outstanding(const workload::Update& u);

  /// True when the object has at least one outstanding update (is stale).
  [[nodiscard]] bool is_stale(ObjectId o) const;

  /// Arrival time of the object's OLDEST outstanding update, or
  /// `kNoOutstanding` when none — how stale a degraded answer for this
  /// object would be (the admission controller's within-tolerance check).
  [[nodiscard]] EventTime oldest_outstanding(ObjectId o) const;
  static constexpr EventTime kNoOutstanding =
      std::numeric_limits<EventTime>::max();

  /// Starts pulling the object's pending-list header and group node into
  /// the CPU cache (a hint; an out-of-range id is ignored).
  void prefetch(ObjectId o) const {
    util::prefetch_row(pending_, o.value());
    util::prefetch_row(group_node_, o.value());
  }

  /// Drops all bookkeeping for an object (evicted, or re-loaded so its
  /// outstanding updates are folded into the load).
  void drop_object(ObjectId o);

  /// Crash-stop wipe (ISSUE 10): drops the entire interaction graph —
  /// pending updates, materialized groups, and the shipped-query memory.
  /// Uses the solver's public removal API (it is deliberately neither
  /// copyable nor movable — the incremental-flow engine points into its
  /// owned network), so the solver stays internally consistent and
  /// reusable. Update vertices are released in object-id order, which
  /// fixes the solver's node indices after the wipe. Run counters (peak
  /// nodes, covers computed) survive: they instrument the experiment, not
  /// the process.
  void clear();

  struct Decision {
    bool ship_query = false;
    /// Updates selected by the cover — ship them all (remainder rule).
    std::vector<const workload::Update*> ship_updates;
  };

  /// Decides for a query with all B(q) cached. Precondition enforced by the
  /// caller. Pure decision: the caller performs the shipping and applies
  /// update growth. The returned reference points at reused scratch, valid
  /// until the next decide() call (keeps the per-query replay path
  /// allocation-free).
  const Decision& decide(const workload::Query& q);

  // ---- introspection (ablation A4 / micro benches) ----
  [[nodiscard]] std::size_t graph_query_count() const {
    return solver_.query_count();
  }
  [[nodiscard]] std::size_t graph_update_count() const {
    return solver_.update_count();
  }
  [[nodiscard]] std::size_t graph_interaction_count() const {
    return solver_.interaction_count();
  }
  [[nodiscard]] std::int64_t flow_bfs_count() const {
    return solver_.bfs_count();
  }
  [[nodiscard]] std::size_t peak_graph_nodes() const {
    return peak_graph_nodes_;
  }
  [[nodiscard]] std::int64_t covers_computed() const {
    return covers_computed_;
  }

 private:
  using UpdateNode = flow::BipartiteCoverSolver::UpdateNode;
  using QueryNode = flow::BipartiteCoverSolver::QueryNode;
  using Signature = std::vector<flow::NodeIndex>;  // sorted group nodes
  using Pending = std::vector<const workload::Update*>;

  /// The single materialized interaction-graph vertex of an object,
  /// covering its needed outstanding updates (shipped together if covered).
  struct UpdateGroup {
    UpdateNode node;
    ObjectId object;
    std::vector<const workload::Update*> members;
    EventTime min_time = 0;
  };

  bool remember_shipped_queries_;
  flow::BipartiteCoverSolver solver_;
  // Per object id, sized at construction:
  /// Outstanding updates not yet in the graph, arrival order.
  std::vector<Pending> pending_;
  /// The object's group vertex (at most one), kNoNode when it has none.
  std::vector<flow::NodeIndex> group_node_;
  // Per solver node index, grown as the solver hands out indices (it
  // recycles removed ones, so these stay as large as the peak graph):
  /// The group whose vertex has this index; stale once the vertex dies.
  std::vector<UpdateGroup> groups_;
  /// A live shipped-query vertex's neighbourhood signature; empty if none.
  std::vector<Signature> node_to_sig_;
  /// Shipped-query merging state, keyed by the (variable-length) signature
  /// itself, so it stays an ordered std::map.
  std::map<Signature, QueryNode> sig_to_node_;
  std::size_t peak_graph_nodes_ = 0;
  std::int64_t covers_computed_ = 0;

  // Reused per-decide() scratch (see Decision lifetime contract).
  Decision decision_;
  Signature connect_;
  Signature sig_scratch_;
  std::vector<QueryNode> affected_;

  [[nodiscard]] std::size_t slot(ObjectId o) const;
  /// The group of the object's vertex, or nullptr when it has none.
  [[nodiscard]] const UpdateGroup* group_of(std::size_t slot) const;
  void remove_group(UpdateGroup& group,
                    std::vector<QueryNode>* affected_queries);
  /// Prunes isolated query vertices and re-keys/merges the rest after
  /// group removals. Consumes `affected` in place (sorts + dedups).
  void rekey_queries(std::vector<QueryNode>& affected);
  void forget_signature(QueryNode node);
};

}  // namespace delta::core
