#include "core/update_manager.h"

#include <algorithm>

#include "util/check.h"

namespace delta::core {

namespace {

/// The row of node index `v`, growing `rows` to cover it.
template <typename T>
T& row(std::vector<T>& rows, flow::NodeIndex v) {
  const auto i = static_cast<std::size_t>(v);
  if (i >= rows.size()) rows.resize(i + 1);
  return rows[i];
}

}  // namespace

UpdateManager::UpdateManager(std::size_t object_count,
                             bool remember_shipped_queries)
    : remember_shipped_queries_(remember_shipped_queries),
      pending_(object_count),
      group_node_(object_count, flow::kNoNode) {}

std::size_t UpdateManager::slot(ObjectId o) const {
  const auto i = static_cast<std::size_t>(o.value());
  DELTA_CHECK_MSG(i < pending_.size(),
                  "object " << o.value() << " out of range");
  return i;
}

const UpdateManager::UpdateGroup* UpdateManager::group_of(
    std::size_t slot) const {
  const flow::NodeIndex v = group_node_[slot];
  if (v == flow::kNoNode) return nullptr;
  const UpdateGroup& group = groups_[static_cast<std::size_t>(v)];
  DELTA_DCHECK(group.node.index == v &&
               static_cast<std::size_t>(group.object.value()) == slot);
  return &group;
}

void UpdateManager::add_outstanding(const workload::Update& u) {
  Pending& pend = pending_[slot(u.object)];
  DELTA_DCHECK(pend.empty() || pend.back()->time <= u.time);
  pend.push_back(&u);
}

bool UpdateManager::is_stale(ObjectId o) const {
  const std::size_t i = slot(o);
  return !pending_[i].empty() || group_node_[i] != flow::kNoNode;
}

EventTime UpdateManager::oldest_outstanding(ObjectId o) const {
  const std::size_t i = slot(o);
  EventTime oldest = kNoOutstanding;
  if (!pending_[i].empty()) {
    oldest = pending_[i].front()->time;  // arrival order: front is oldest
  }
  if (const UpdateGroup* group = group_of(i)) {
    oldest = std::min(oldest, group->min_time);
  }
  return oldest;
}

void UpdateManager::forget_signature(QueryNode node) {
  const auto i = static_cast<std::size_t>(node.index);
  if (i >= node_to_sig_.size() || node_to_sig_[i].empty()) return;
  Signature& sig = node_to_sig_[i];
  const auto sit = sig_to_node_.find(sig);
  if (sit != sig_to_node_.end() && sit->second == node) {
    sig_to_node_.erase(sit);
  }
  sig.clear();
}

void UpdateManager::remove_group(UpdateGroup& group,
                                 std::vector<QueryNode>* affected_queries) {
  if (affected_queries != nullptr) {
    solver_.for_each_neighbor(group.node, [affected_queries](QueryNode q) {
      affected_queries->push_back(q);
    });
  }
  group_node_[slot(group.object)] = flow::kNoNode;
  solver_.remove_update(group.node);
  group.members.clear();
}

void UpdateManager::rekey_queries(std::vector<QueryNode>& affected) {
  std::sort(affected.begin(), affected.end(),
            [](const QueryNode& a, const QueryNode& b) {
              return a.index < b.index;
            });
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  for (const QueryNode qn : affected) {
    if (!solver_.alive(qn)) continue;  // already pruned or merged away
    forget_signature(qn);
    Signature& sig = sig_scratch_;
    sig.clear();
    solver_.for_each_neighbor(
        qn, [&sig](UpdateNode un) { sig.push_back(un.index); });
    if (sig.empty()) {
      // Isolated: the remainder rule discards it.
      solver_.remove_query(qn);
      continue;
    }
    std::sort(sig.begin(), sig.end());
    const auto [it, inserted] = sig_to_node_.try_emplace(sig, qn);
    if (inserted) {
      row(node_to_sig_, qn.index) = sig;
    } else if (solver_.alive(it->second) && !(it->second == qn)) {
      // Same neighborhood as an existing vertex: merge (cover-exact).
      solver_.add_weight(it->second, solver_.weight(qn));
      solver_.remove_query_force(qn);
    } else {
      it->second = qn;
      row(node_to_sig_, qn.index) = sig;
    }
  }
}

void UpdateManager::clear() {
  // Query vertices first, forced: shipped-query memory may still carry
  // interaction edges, and remove_query_force cancels any flow through
  // them. Then the update groups in object-id order (their remaining edges
  // vanish with them); the order fixes which indices the solver recycles.
  for (const auto& [sig, node] : sig_to_node_) {
    solver_.remove_query_force(node);
  }
  sig_to_node_.clear();
  node_to_sig_.clear();
  for (flow::NodeIndex& v : group_node_) {
    if (v == flow::kNoNode) continue;
    solver_.remove_update(groups_[static_cast<std::size_t>(v)].node);
    v = flow::kNoNode;
  }
  groups_.clear();
  for (Pending& pend : pending_) pend = Pending{};
}

void UpdateManager::drop_object(ObjectId o) {
  const std::size_t i = slot(o);
  pending_[i] = Pending{};  // releases the buffer
  const flow::NodeIndex v = group_node_[i];
  if (v == flow::kNoNode) return;
  affected_.clear();
  remove_group(groups_[static_cast<std::size_t>(v)], &affected_);
  rekey_queries(affected_);
}

const UpdateManager::Decision& UpdateManager::decide(
    const workload::Query& q) {
  Decision& decision = decision_;
  decision.ship_query = false;
  decision.ship_updates.clear();

  // Updates this query interacts with: outstanding updates on its objects
  // that are older than its staleness tolerance (paper §3: answers must
  // incorporate all updates except those in the last t(q) time units).
  const EventTime needed_before = q.time - q.staleness_tolerance;

  Signature& connect = connect_;  // group vertices to link to q
  connect.clear();
  for (const ObjectId o : q.objects) {
    const std::size_t i = slot(o);
    // Materialize the needed prefix of the object's pending updates into
    // its group vertex (pending lists are in arrival = time order).
    Pending& pend = pending_[i];
    if (!pend.empty() && pend.front()->time <= needed_before) {
      const auto split = std::upper_bound(
          pend.begin(), pend.end(), needed_before,
          [](EventTime t, const workload::Update* u) { return t < u->time; });
      Bytes batch_cost;
      for (auto it = pend.begin(); it != split; ++it) {
        batch_cost += (*it)->cost;
      }
      if (group_node_[i] == flow::kNoNode) {
        const UpdateNode node = solver_.add_update(batch_cost.count());
        UpdateGroup& group = row(groups_, node.index);
        group.node = node;
        group.object = o;
        group.members.assign(pend.begin(), split);
        group.min_time = group.members.front()->time;
        group_node_[i] = node.index;
      } else {
        UpdateGroup& group = groups_[static_cast<std::size_t>(group_node_[i])];
        group.members.insert(group.members.end(), pend.begin(), split);
        solver_.add_weight(group.node, batch_cost.count());
      }
      pend.erase(pend.begin(), split);
    }
    const UpdateGroup* group = group_of(i);
    if (group != nullptr && group->min_time <= needed_before) {
      connect.push_back(group->node.index);
    }
  }
  if (connect.empty()) {
    // Fresh enough: execute at the cache, no graph changes (Fig. 4 line 12).
    return decision;
  }
  std::sort(connect.begin(), connect.end());

  // Incorporate the query into the graph — either as a fresh vertex or by
  // adding its weight to an existing shipped-query vertex with the same
  // neighborhood (cover-exact merging).
  QueryNode qnode;
  bool reused = false;
  if (remember_shipped_queries_) {
    const auto sit = sig_to_node_.find(connect);
    if (sit != sig_to_node_.end() && solver_.alive(sit->second)) {
      qnode = sit->second;
      solver_.add_weight(qnode, q.cost.count());
      reused = true;
    }
  }
  if (!reused) {
    qnode = solver_.add_query(q.cost.count());
    for (const flow::NodeIndex v : connect) {
      solver_.connect(groups_[static_cast<std::size_t>(v)].node, qnode);
    }
  }
  peak_graph_nodes_ = std::max(
      peak_graph_nodes_, solver_.query_count() + solver_.update_count());

  // Minimum-weight vertex cover via incremental max-flow (Fig. 5).
  const auto& cover = solver_.compute();
  ++covers_computed_;
  decision.ship_query = solver_.in_last_cover(qnode);

  // Remainder rule: ship every covered group and remove it; prune/re-key
  // affected query vertices.
  affected_.clear();
  for (const UpdateNode un : cover.updates) {
    UpdateGroup& group = groups_[static_cast<std::size_t>(un.index)];
    DELTA_CHECK_MSG(group.node == un, "covered update node has no group");
    decision.ship_updates.insert(decision.ship_updates.end(),
                                 group.members.begin(), group.members.end());
    remove_group(group, &affected_);
  }
  if (!decision.ship_query) {
    // All of q's neighbours were covered groups, now shipped: q runs at the
    // cache and its (isolated) vertex is pruned by the re-key pass.
    affected_.push_back(qnode);
  } else if (!remember_shipped_queries_) {
    // Ablation A4: forget the shipped query immediately — future covers
    // lose the accumulated justification for shipping its updates.
    solver_.remove_query_force(qnode);
  } else if (!reused) {
    affected_.push_back(qnode);  // register its (possibly shrunk) signature
  }
  rekey_queries(affected_);
  return decision;
}

}  // namespace delta::core
