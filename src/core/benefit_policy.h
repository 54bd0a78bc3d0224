// BenefitPolicy (paper §5): the exponential-smoothing window heuristic that
// commercial dynamic-data caches employ, reproduced as the comparator.
//
// The event sequence is divided into windows of δ events. Per window, each
// object accrues a benefit: query savings attributed proportionally to
// object sizes, minus the update traffic it caused (or would have caused),
// minus the load cost if it is not cached. The forecast
// µ_i = (1−α)µ_{i−1} + α·b_{i−1} ranks objects; the cache is greedily
// re-filled with the positive-forecast objects at each window boundary.
// Cached objects receive updates eagerly (shipped on arrival).
#pragma once

#include <vector>

#include "cache/cache_store.h"
#include "core/cache_node.h"
#include "core/policy.h"

namespace delta::core {

struct BenefitOptions {
  Bytes cache_capacity;
  /// Window size δ in merged events (paper default: 1000, tuned).
  std::int64_t window = 1000;
  /// Exponential smoothing learning rate α.
  double alpha = 0.3;
};

class BenefitPolicy final : public CachePolicy {
 public:
  BenefitPolicy(CacheNode* cache, const BenefitOptions& options);

  void on_update(const workload::Update& u) override;
  QueryOutcome on_query(const workload::Query& q) override;
  void on_query_async(const workload::Query& q, QueryDone done) override;
  /// Crash-stop wipe (ISSUE 10): the store, the smoothed forecasts, and the
  /// open window accruals are all in-memory soft state. Instrument counters
  /// (loads, evictions, windows closed) survive.
  void on_crash_restart() override;
  [[nodiscard]] const char* name() const override { return "Benefit"; }

  [[nodiscard]] const cache::CacheStore& store() const { return store_; }
  [[nodiscard]] std::int64_t loads() const { return loads_; }
  [[nodiscard]] std::int64_t evictions() const { return evictions_; }
  [[nodiscard]] std::int64_t windows_closed() const {
    return windows_closed_;
  }

 private:
  CacheNode* system_;  // the cache endpoint this policy drives
  BenefitOptions options_;
  cache::CacheStore store_;
  std::vector<double> forecast_;       // µ per object
  std::vector<double> saved_window_;   // realized savings (cached objects)
  std::vector<double> would_window_;   // counterfactual savings (non-cached)
  std::vector<double> update_window_;  // update bytes per object
  std::int64_t events_in_window_ = 0;
  std::int64_t loads_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t windows_closed_ = 0;
  std::vector<ObjectId> victims_;  // eviction-sweep scratch (close_window)

  void tick();
  void close_window();
  void evict_lowest_forecast_until_fits();
  /// Shared bookkeeping of both query entry points. classify_query settles
  /// the path (accruing realized savings for all-cached queries) and
  /// returns true when the query must be shipped — the only traffic a
  /// Benefit query emits; account_shipped accrues the counterfactual
  /// savings after the ship is issued.
  bool classify_query(const workload::Query& q, QueryOutcome& outcome);
  void account_shipped(const workload::Query& q);
};

}  // namespace delta::core
