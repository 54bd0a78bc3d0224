#include "core/benefit_policy.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace delta::core {

BenefitPolicy::BenefitPolicy(CacheNode* system,
                             const BenefitOptions& options)
    : system_(checked_cache(system)),
      options_(options),
      store_(options.cache_capacity, system_->object_count()) {
  DELTA_CHECK(options.window > 0);
  DELTA_CHECK(options.alpha >= 0.0 && options.alpha <= 1.0);
  const std::size_t n = system->object_count();
  forecast_.assign(n, 0.0);
  saved_window_.assign(n, 0.0);
  would_window_.assign(n, 0.0);
  update_window_.assign(n, 0.0);
  ranked_.resize(n);
  selected_.resize(n);
  // Benefit keeps per-object state server-side for every object, cached or
  // not (§5), so it subscribes to all update metadata.
  system_->set_subscription(MetadataSubscription::kAll);
  system_->set_invalidation_handler(
      [this](const workload::Update& u) { on_update(u); });
}

void BenefitPolicy::on_crash_restart() {
  store_.clear();
  std::fill(forecast_.begin(), forecast_.end(), 0.0);
  std::fill(saved_window_.begin(), saved_window_.end(), 0.0);
  std::fill(would_window_.begin(), would_window_.end(), 0.0);
  std::fill(update_window_.begin(), update_window_.end(), 0.0);
  events_in_window_ = 0;
}

void BenefitPolicy::on_update(const workload::Update& u) {
  const auto i = static_cast<std::size_t>(u.object.value());
  update_window_[i] += u.cost.as_double();
  if (store_.contains(u.object)) {
    // Cached objects are kept current eagerly.
    system_->ship_update(u);
    store_.grow(u.object, u.cost);
    evict_lowest_forecast_until_fits();
  }
  tick();
}

bool BenefitPolicy::classify_query(const workload::Query& q,
                                   QueryOutcome& outcome) {
  bool all_cached = true;
  double size_sum = 0.0;
  for (const ObjectId o : q.objects) {
    if (!store_.contains(o)) all_cached = false;
    size_sum += system_->server_object_bytes(o).as_double();
  }
  if (size_sum <= 0.0) size_sum = 1.0;

  if (all_cached) {
    outcome.path = QueryOutcome::Path::kCacheFresh;  // eager updates: fresh
    for (const ObjectId o : q.objects) {
      const auto i = static_cast<std::size_t>(o.value());
      const double share =
          q.cost.as_double() *
          system_->server_object_bytes(o).as_double() / size_sum;
      saved_window_[i] += share;
    }
    return false;
  }
  outcome.path = QueryOutcome::Path::kShipped;
  return true;
}

void BenefitPolicy::account_shipped(const workload::Query& q) {
  // Accrued after the ship is issued, like the pre-async code: a blocking
  // ship pumps deliveries whose on_update calls may close the window, and
  // the counterfactual savings must land in whichever window is then
  // current.
  double size_sum = 0.0;
  for (const ObjectId o : q.objects) {
    size_sum += system_->server_object_bytes(o).as_double();
  }
  if (size_sum <= 0.0) size_sum = 1.0;
  for (const ObjectId o : q.objects) {
    if (store_.contains(o)) continue;
    const auto i = static_cast<std::size_t>(o.value());
    const double share =
        q.cost.as_double() *
        system_->server_object_bytes(o).as_double() / size_sum;
    would_window_[i] += share;
  }
}

QueryOutcome BenefitPolicy::on_query(const workload::Query& q) {
  QueryOutcome outcome;
  if (classify_query(q, outcome)) {
    outcome.result_bytes = system_->ship_query(q);
    account_shipped(q);
  }
  tick();
  return outcome;
}

void BenefitPolicy::on_query_async(const workload::Query& q,
                                   QueryDone done) {
  const std::uint32_t slot = queries_.begin(done);
  if (classify_query(q, queries_[slot].outcome)) {
    AsyncQueryTx{system_, &queries_, slot}.ship_query(
        q, queries_[slot].outcome);
    account_shipped(q);
  }
  // The window boundary may fall here; close_window's loads/evictions use
  // the synchronous façade — a rare, bounded stall inside an otherwise
  // open-loop stream.
  tick();
  queries_.step(slot);  // release the dispatch barrier
}

void BenefitPolicy::tick() {
  if (++events_in_window_ >= options_.window) {
    close_window();
    events_in_window_ = 0;
  }
}

void BenefitPolicy::evict_lowest_forecast_until_fits() {
  while (store_.over_capacity()) {
    // Allocation-free arg-min over the residents; the (forecast, id)
    // tie-break makes the victim independent of the store's visit order.
    ObjectId victim = ObjectId::invalid();
    double victim_mu = 0.0;
    store_.for_each_resident([&](ObjectId o, Bytes) {
      const double mu = forecast_[static_cast<std::size_t>(o.value())];
      if (!victim.valid() || mu < victim_mu ||
          (mu == victim_mu && o < victim)) {
        victim = o;
        victim_mu = mu;
      }
    });
    DELTA_CHECK(victim.valid());
    store_.evict(victim);
    system_->notify_eviction(victim);
    ++evictions_;
  }
}

void BenefitPolicy::close_window() {
  ++windows_closed_;
  const std::size_t n = forecast_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const ObjectId o{static_cast<std::int64_t>(i)};
    const bool cached = store_.contains(o);
    double b = cached ? saved_window_[i]
                      : would_window_[i] -
                            system_->load_cost(o).as_double();
    b -= update_window_[i];
    forecast_[i] = (1.0 - options_.alpha) * forecast_[i] +
                   options_.alpha * b;
    saved_window_[i] = 0.0;
    would_window_[i] = 0.0;
    update_window_[i] = 0.0;
  }

  // Greedy re-fill: positive forecasts in decreasing order until full,
  // equal forecasts in id order. The rows are members, so closing a window
  // allocates nothing.
  std::iota(ranked_.begin(), ranked_.end(), 0);
  std::sort(ranked_.begin(), ranked_.end(), [&](std::size_t a, std::size_t b) {
    return forecast_[a] > forecast_[b] ||
           (forecast_[a] == forecast_[b] && a < b);
  });
  std::fill(selected_.begin(), selected_.end(), false);
  Bytes budget = store_.capacity();
  for (const std::size_t i : ranked_) {
    if (forecast_[i] <= 0.0) break;
    const ObjectId o{static_cast<std::int64_t>(i)};
    const Bytes size = system_->server_object_bytes(o);
    if (size.count() <= 0 || size > budget) continue;
    selected_[i] = true;
    budget -= size;
  }
  // Evict residents that fell out of the selection (no network traffic).
  // Victims are collected first: the store must not be mutated while its
  // entries are being visited.
  victims_.clear();
  store_.for_each_resident([&](ObjectId o, Bytes) {
    if (!selected_[static_cast<std::size_t>(o.value())]) victims_.push_back(o);
  });
  for (const ObjectId o : victims_) {
    store_.evict(o);
    system_->notify_eviction(o);
    ++evictions_;
  }
  // Load newcomers in id order; already-resident selections stay ("don't
  // have to be reloaded", §5).
  for (std::size_t i = 0; i < n; ++i) {
    const ObjectId o{static_cast<std::int64_t>(i)};
    if (!selected_[i] || store_.contains(o)) continue;
    system_->load_object(o);
    // The load pumps deliveries whose on_update may close a nested window,
    // and that close may have loaded `o` already.
    if (store_.contains(o)) continue;
    store_.load(o, system_->server_object_bytes(o));
    ++loads_;
  }
}

}  // namespace delta::core
