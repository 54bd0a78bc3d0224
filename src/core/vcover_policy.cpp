#include "core/vcover_policy.h"

#include <algorithm>
#include <utility>

#include "cache/gds.h"
#include "cache/lru.h"
#include "core/async_query.h"
#include "util/check.h"

namespace delta::core {

namespace {

/// Synchronous transmitter: each emission is a blocking round trip (the
/// CacheNode façade pumps the event queue until the reply lands). This is
/// the closed-loop golden path — message order and timing are exactly the
/// pre-async behavior. AsyncQueryTx (core/async_query.h) is the
/// overlapping counterpart.
struct SyncQueryTx {
  CacheNode* cache;
  void ship_update(const workload::Update& u) { cache->ship_update(u); }
  void ship_query(const workload::Query& q, QueryOutcome& outcome) {
    outcome.result_bytes = cache->ship_query(q);
  }
  void load_object(ObjectId o) { cache->load_object(o); }
};

}  // namespace

VCoverPolicy::VCoverPolicy(CacheNode* system, const VCoverOptions& options)
    : system_(checked_cache(system)),
      options_(options),
      store_(options.cache_capacity, system_->object_count()),
      evictor_(make_evictor()),
      update_manager_(system_->object_count(),
                      options.remember_shipped_queries),
      load_manager_(options.loading, util::Rng{options.rng_seed},
                    system_->object_count()),
      heat_(options.preship ? system_->object_count() : 0, 0.0) {
  system_->set_subscription(MetadataSubscription::kRegisteredOnly);
  system_->set_invalidation_handler(
      [this](const workload::Update& u) { on_update(u); });
}

std::unique_ptr<cache::EvictionPolicy> VCoverPolicy::make_evictor() const {
  if (options_.use_lru) return std::make_unique<cache::LruPolicy>(&store_);
  return std::make_unique<cache::GreedyDualSize>(&store_);
}

void VCoverPolicy::on_crash_restart() {
  store_.clear();
  // The evictor's priority state (GDS inflation value L, LRU clocks) is
  // in-memory; a restarted process starts from a fresh instance.
  evictor_ = make_evictor();
  update_manager_.clear();
  load_manager_.clear();
  std::fill(heat_.begin(), heat_.end(), 0.0);
  missing_.clear();
  eager_batch_.clear();
}

void VCoverPolicy::on_update(const workload::Update& u) {
  // Invalidations arrive only for registered (resident) objects — except
  // that over an event-driven transport our eviction notice may still be
  // in flight when the server fanned this notice out. That race is a
  // legitimately stale notice (the server stops notifying once the
  // eviction lands), so drop it; with inline delivery it cannot happen
  // and stays an invariant violation.
  if (!store_.contains(u.object)) {
    DELTA_CHECK_MSG(!system_->transport_synchronous(),
                    "invalidation for non-resident object");
    return;
  }
  if (options_.preship) {
    if (heat_[static_cast<std::size_t>(u.object.value())] >=
        options_.preship_heat_threshold) {
      // Hot object: push the content proactively so the next
      // currency-constrained query needn't wait.
      system_->ship_update(u);
      store_.grow(u.object, u.cost);
      ++preshipped_;
      shed_overflow();
      return;
    }
  }
  update_manager_.add_outstanding(u);
  store_.mark_stale(u.object);
}

void VCoverPolicy::evict_object(ObjectId o) {
  store_.evict(o);
  update_manager_.drop_object(o);
  load_manager_.forget(o);
  if (options_.preship) heat_[static_cast<std::size_t>(o.value())] = 0.0;
  system_->notify_eviction(o);
  ++evictions_;
}

void VCoverPolicy::shed_overflow() {
  if (!store_.over_capacity()) return;
  for (const ObjectId victim : evictor_->shed_overflow()) {
    evict_object(victim);
  }
  DELTA_CHECK(!store_.over_capacity());
}

template <typename Tx>
void VCoverPolicy::apply_batch(const std::vector<cache::LoadCandidate>& batch,
                               QueryOutcome& outcome, Tx&& tx) {
  const cache::BatchDecision& decision = evictor_->decide_batch(batch);
  for (const ObjectId victim : decision.evict) {
    evict_object(victim);
  }
  for (const ObjectId o : decision.load) {
    const Bytes size = system_->server_object_bytes(o);
    tx.load_object(o);     // LoadData message: size + framing
    store_.load(o, size);  // enters fresh, with all updates folded in
    load_manager_.forget(o);
    ++loads_;
    ++outcome.objects_loaded;
  }
}

template <typename Tx>
void VCoverPolicy::dispatch_query(const workload::Query& q,
                                  QueryOutcome& outcome, Tx&& tx) {
  missing_.clear();
  for (const ObjectId o : q.objects) {
    if (!store_.contains(o)) missing_.push_back(o);
  }

  if (missing_.empty()) {
    if (admission_.enabled && can_degrade(q)) {
      // Overload degradation: the cached data already satisfies t(q) —
      // answer as-is instead of pushing cover traffic onto a congested
      // uplink. kCacheFresh because the answer IS within tolerance.
      outcome.path = QueryOutcome::Path::kCacheFresh;
      system_->count_degraded_query();
      ++cache_answers_;
      for (const ObjectId o : q.objects) {
        evictor_->on_access(o);
      }
      return;
    }
    // All objects cached: UpdateManager chooses between shipping the query
    // and shipping its interacting updates (Fig. 4).
    const UpdateManager::Decision& decision = update_manager_.decide(q);
    for (const workload::Update* u : decision.ship_updates) {
      tx.ship_update(*u);
      store_.grow(u->object, u->cost);
      outcome.updates_shipped_bytes += u->cost;
      outcome.max_update_bytes = std::max(outcome.max_update_bytes, u->cost);
      outcome.shipped_update_ids.push_back(u->id);
      if (!update_manager_.is_stale(u->object)) {
        store_.mark_fresh(u->object);
      }
    }
    if (decision.ship_query) {
      outcome.path = QueryOutcome::Path::kShipped;
      tx.ship_query(q, outcome);
    } else {
      outcome.path = decision.ship_updates.empty()
                         ? QueryOutcome::Path::kCacheFresh
                         : QueryOutcome::Path::kCacheAfterUpdates;
      ++cache_answers_;
      for (const ObjectId o : q.objects) {
        evictor_->on_access(o);
        if (options_.preship) {
          double& h = heat_[static_cast<std::size_t>(o.value())];
          h = h * options_.preship_heat_decay + 1.0;
        }
      }
    }
    shed_overflow();  // shipped updates may have grown past capacity
    return;
  }

  // At least one object missing: ship the query, then decide loads in the
  // background (Fig. 3 lines 6-8).
  outcome.path = QueryOutcome::Path::kShipped;
  tx.ship_query(q, outcome);
  const std::vector<cache::LoadCandidate>& candidates =
      load_manager_.consider(
          q, missing_,
          [this](ObjectId o) { return system_->server_object_bytes(o); },
          [this](ObjectId o) { return system_->load_cost(o); });
  if (!candidates.empty()) {
    if (load_manager_.options().lazy) {
      apply_batch(candidates, outcome, tx);
    } else {
      // Eager mode (ablation A3): each candidate is its own batch.
      for (const cache::LoadCandidate& c : candidates) {
        eager_batch_.assign(1, c);
        apply_batch(eager_batch_, outcome, tx);
      }
    }
  }
}

bool VCoverPolicy::can_degrade(const workload::Query& q) const {
  const bool pressure =
      system_->uplink_backlog_seconds() > admission_.degrade_backlog_seconds ||
      (admission_.degrade_in_flight > 0 &&
       static_cast<std::int64_t>(system_->pending_requests()) >=
           admission_.degrade_in_flight);
  if (!pressure) return false;
  // t(q) semantics: the answer may omit updates newer than
  // q.time - tolerance. Degrading is valid only when EVERY outstanding
  // update on the query's objects is omittable (plus configured slack).
  const EventTime horizon =
      q.time - q.staleness_tolerance - admission_.degrade_extra_tolerance;
  for (const ObjectId o : q.objects) {
    if (update_manager_.oldest_outstanding(o) <= horizon) return false;
  }
  return true;
}

QueryOutcome VCoverPolicy::on_query(const workload::Query& q) {
  QueryOutcome outcome;
  dispatch_query(q, outcome, SyncQueryTx{system_});
  return outcome;
}

void VCoverPolicy::on_query_async(const workload::Query& q, QueryDone done) {
  const auto ctx = begin_async_query(std::move(done));
  dispatch_query(q, ctx->outcome, AsyncQueryTx{system_, ctx});
  async_query_step(ctx);  // release the dispatch barrier
}

}  // namespace delta::core
