#include "core/yardsticks.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace delta::core {

// ---------------------------------------------------------------- NoCache

NoCachePolicy::NoCachePolicy(CacheNode* system) : system_(system) {
  DELTA_CHECK(system != nullptr);
  system_->set_subscription(MetadataSubscription::kNone);
}

void NoCachePolicy::on_update(const workload::Update&) {
  // Without a cache there is nothing to keep current.
}

QueryOutcome NoCachePolicy::on_query(const workload::Query& q) {
  QueryOutcome outcome;
  outcome.path = QueryOutcome::Path::kShipped;
  outcome.result_bytes = system_->ship_query(q);
  return outcome;
}

void NoCachePolicy::on_query_async(const workload::Query& q,
                                   QueryDone done) {
  const std::uint32_t slot = queries_.begin(done);
  queries_[slot].outcome.path = QueryOutcome::Path::kShipped;
  AsyncQueryTx{system_, &queries_, slot}.ship_query(q,
                                                     queries_[slot].outcome);
  queries_.step(slot);  // release the dispatch barrier
}

// ---------------------------------------------------------------- Replica

ReplicaPolicy::ReplicaPolicy(CacheNode* system) : system_(system) {
  DELTA_CHECK(system != nullptr);
  system_->set_subscription(MetadataSubscription::kAll);
  system_->set_invalidation_handler(
      [this](const workload::Update& u) { on_update(u); });
}

void ReplicaPolicy::on_update(const workload::Update& u) {
  // Full replica: every update is propagated as soon as it arrives. Open
  // loop, the refresh goes out fire-and-forget so one slow (or dark) link
  // can never park the arrival drive behind a blocking round trip.
  if (async_ship_) {
    system_->ship_update_async(u, CacheNode::Completion::discard());
    return;
  }
  system_->ship_update(u);
}

QueryOutcome ReplicaPolicy::on_query(const workload::Query&) {
  QueryOutcome outcome;
  outcome.path = QueryOutcome::Path::kCacheFresh;
  return outcome;
}

// --------------------------------------------------------------- SOptimal

namespace {

/// Whether query index `qi` is routed to the endpoint choosing the set.
bool routed_here(const SOptimalOptions& options, std::size_t qi) {
  return options.query_assignment == nullptr ||
         (*options.query_assignment)[qi] == options.endpoint;
}

struct HindsightStats {
  std::vector<double> saved;       // proportional query savings
  std::vector<double> update_cost; // total ν(u) per object
  std::vector<Bytes> final_size;   // initial size + all update growth
};

HindsightStats hindsight(const workload::Trace& trace,
                         const SOptimalOptions& options) {
  const std::size_t n = trace.initial_object_bytes.size();
  HindsightStats s;
  s.saved.assign(n, 0.0);
  s.update_cost.assign(n, 0.0);
  s.final_size = trace.initial_object_bytes;
  for (const workload::Update& u : trace.updates) {
    const auto i = static_cast<std::size_t>(u.object.value());
    DELTA_CHECK_MSG(i < n, "update of object " << u.object.value()
                                               << " out of range");
    s.update_cost[i] += u.cost.as_double();
    s.final_size[i] += u.cost;
  }
  for (std::size_t qi = 0; qi < trace.queries.size(); ++qi) {
    if (!routed_here(options, qi)) continue;
    const workload::Query& q = trace.queries[qi];
    double size_sum = 0.0;
    for (const ObjectId o : q.objects) {
      DELTA_CHECK_MSG(static_cast<std::size_t>(o.value()) < n,
                      "query object " << o.value() << " out of range");
      size_sum +=
          trace.initial_object_bytes[static_cast<std::size_t>(o.value())]
              .as_double();
    }
    if (size_sum <= 0.0) continue;
    for (const ObjectId o : q.objects) {
      const auto i = static_cast<std::size_t>(o.value());
      s.saved[i] += q.cost.as_double() *
                    trace.initial_object_bytes[i].as_double() / size_sum;
    }
  }
  return s;
}

/// Exact replay cost of a static set: shipped queries + updates on the set
/// + up-front loads. Used by the local-search refinement (ablation A5).
class StaticSetEvaluator {
 public:
  StaticSetEvaluator(const workload::Trace& trace,
                     const std::vector<Bytes>& load_costs,
                     const SOptimalOptions& options)
      : trace_(&trace), load_costs_(&load_costs) {
    const std::size_t n = trace.initial_object_bytes.size();
    object_queries_.resize(n);
    missing_.assign(trace.queries.size(), 0);
    update_cost_.assign(n, 0.0);
    for (std::size_t qi = 0; qi < trace.queries.size(); ++qi) {
      if (!routed_here(options, qi)) continue;  // another endpoint's query
      for (const ObjectId o : trace.queries[qi].objects) {
        object_queries_[static_cast<std::size_t>(o.value())].push_back(qi);
      }
      missing_[qi] =
          static_cast<std::int32_t>(trace.queries[qi].objects.size());
      cost_ += trace.queries[qi].cost.as_double();
    }
    for (const workload::Update& u : trace.updates) {
      update_cost_[static_cast<std::size_t>(u.object.value())] +=
          u.cost.as_double();
    }
    in_set_.assign(n, false);
  }

  [[nodiscard]] double cost() const { return cost_; }
  [[nodiscard]] bool contains(std::size_t o) const { return in_set_[o]; }

  void add(std::size_t o) {
    DELTA_CHECK(!in_set_[o]);
    in_set_[o] = true;
    cost_ += (*load_costs_)[o].as_double() + update_cost_[o];
    for (const std::size_t qi : object_queries_[o]) {
      if (--missing_[qi] == 0) {
        cost_ -= trace_->queries[qi].cost.as_double();
      }
    }
  }

  void remove(std::size_t o) {
    DELTA_CHECK(in_set_[o]);
    in_set_[o] = false;
    cost_ -= (*load_costs_)[o].as_double() + update_cost_[o];
    for (const std::size_t qi : object_queries_[o]) {
      if (missing_[qi]++ == 0) {
        cost_ += trace_->queries[qi].cost.as_double();
      }
    }
  }

 private:
  const workload::Trace* trace_;
  const std::vector<Bytes>* load_costs_;
  std::vector<std::vector<std::size_t>> object_queries_;
  std::vector<std::int32_t> missing_;
  std::vector<double> update_cost_;
  std::vector<bool> in_set_;
  double cost_ = 0.0;
};

}  // namespace

std::vector<bool> SOptimalPolicy::choose_set(
    const workload::Trace& trace, const SOptimalOptions& options) {
  DELTA_CHECK(options.query_assignment == nullptr ||
              options.query_assignment->size() == trace.queries.size());
  const std::size_t n = trace.initial_object_bytes.size();
  const HindsightStats stats = hindsight(trace, options);
  std::vector<Bytes> load_costs(n);
  std::vector<double> net(n);
  for (std::size_t i = 0; i < n; ++i) {
    load_costs[i] =
        trace.initial_object_bytes[i] + ServerNode::kLoadOverheadBytes;
    net[i] = stats.saved[i] - stats.update_cost[i] -
             load_costs[i].as_double();
  }
  std::vector<std::size_t> ranked(n);
  std::iota(ranked.begin(), ranked.end(), 0);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](std::size_t a, std::size_t b) {
                     return net[a] > net[b];
                   });

  // Greedy fill by final sizes (the set must fit even after growth; the
  // static yardstick never evicts).
  std::vector<bool> selected(n, false);
  Bytes budget = options.cache_capacity;
  for (const std::size_t i : ranked) {
    if (net[i] <= 0.0) break;
    if (trace.initial_object_bytes[i].count() <= 0) continue;
    if (stats.final_size[i] > budget) continue;
    selected[i] = true;
    budget -= stats.final_size[i];
  }
  if (!options.local_search) return selected;

  // Ablation A5: add/drop hill-climbing against the exact replay cost.
  StaticSetEvaluator eval{trace, load_costs, options};
  for (std::size_t i = 0; i < n; ++i) {
    if (selected[i]) eval.add(i);
  }
  for (int pass = 0; pass < 30; ++pass) {
    bool improved = false;
    for (const std::size_t i : ranked) {
      if (trace.initial_object_bytes[i].count() <= 0) continue;
      const double before = eval.cost();
      if (selected[i]) {
        eval.remove(i);
        if (eval.cost() + 1e-6 < before) {
          selected[i] = false;
          budget += stats.final_size[i];
          improved = true;
        } else {
          eval.add(i);
        }
      } else if (stats.final_size[i] <= budget) {
        eval.add(i);
        if (eval.cost() + 1e-6 < before) {
          selected[i] = true;
          budget -= stats.final_size[i];
          improved = true;
        } else {
          eval.remove(i);
        }
      }
    }
    if (!improved) break;
  }
  return selected;
}

SOptimalPolicy::SOptimalPolicy(CacheNode* system,
                               const workload::Trace* trace,
                               const SOptimalOptions& options)
    : system_(system) {
  DELTA_CHECK(system != nullptr);
  DELTA_CHECK(trace != nullptr);
  chosen_ = choose_set(*trace, options);
  system_->set_subscription(MetadataSubscription::kRegisteredOnly);
  system_->set_invalidation_handler(
      [this](const workload::Update& u) { on_update(u); });
  // Load the static set up front, in id order — at event zero, inside the
  // warm-up window, exactly as the paper implements it.
  for (const ObjectId o : chosen()) system_->load_object(o);
}

std::vector<ObjectId> SOptimalPolicy::chosen() const {
  std::vector<ObjectId> out;
  for (std::size_t i = 0; i < chosen_.size(); ++i) {
    if (chosen_[i]) out.push_back(ObjectId{static_cast<std::int64_t>(i)});
  }
  return out;
}

bool SOptimalPolicy::chooses(ObjectId o) const {
  const auto i = static_cast<std::size_t>(o.value());
  return i < chosen_.size() && chosen_[i];
}

void SOptimalPolicy::on_update(const workload::Update& u) {
  DELTA_CHECK(chooses(u.object));
  system_->ship_update(u);  // keep the static set current
}

QueryOutcome SOptimalPolicy::on_query(const workload::Query& q) {
  QueryOutcome outcome;
  for (const ObjectId o : q.objects) {
    if (!chooses(o)) {
      outcome.path = QueryOutcome::Path::kShipped;
      outcome.result_bytes = system_->ship_query(q);
      return outcome;
    }
  }
  outcome.path = QueryOutcome::Path::kCacheFresh;
  return outcome;
}

void SOptimalPolicy::on_query_async(const workload::Query& q,
                                    QueryDone done) {
  const std::uint32_t slot = queries_.begin(done);
  QueryOutcome& outcome = queries_[slot].outcome;
  outcome.path = QueryOutcome::Path::kCacheFresh;
  for (const ObjectId o : q.objects) {
    if (!chooses(o)) {
      outcome.path = QueryOutcome::Path::kShipped;
      AsyncQueryTx{system_, &queries_, slot}.ship_query(q, outcome);
      break;
    }
  }
  queries_.step(slot);  // release the dispatch barrier
}

}  // namespace delta::core
