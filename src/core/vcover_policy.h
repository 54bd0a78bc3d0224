// VCoverPolicy: the paper's algorithm (Fig. 3) assembled from its two
// modules. Queries whose objects are all cached go to the UpdateManager
// (incremental vertex-cover decision between query shipping and update
// shipping); queries touching missing objects are shipped and handed to the
// LoadManager (randomized bypass-caching admission over lazy GDS).
//
// The optional preshipping extension (§4 Discussion) proactively ships
// updates for "hot" cached objects on arrival, trading a little traffic for
// lower response times on currency-constrained queries.
#pragma once

#include <memory>

#include "cache/cache_store.h"
#include "cache/eviction_policy.h"
#include "core/cache_node.h"
#include "core/load_manager.h"
#include "core/policy.h"
#include "core/update_manager.h"
#include "util/rng.h"

namespace delta::core {

struct VCoverOptions {
  Bytes cache_capacity;
  LoadManager::Options loading;
  /// Remainder-rule memory for shipped queries (ablation A4 turns it off).
  bool remember_shipped_queries = true;
  /// Object caching algorithm: Greedy-Dual-Size (paper) or LRU (ablation).
  bool use_lru = false;
  /// Preshipping extension (E1). Heat starts at 0 for every object and
  /// resets to 0 on eviction.
  bool preship = false;
  double preship_heat_threshold = 3.0;
  double preship_heat_decay = 0.98;
  std::uint64_t rng_seed = 0xD517A;
  /// Unread. The per-object tables are plain vectors sized from the
  /// repository's object count, so there is nothing to pre-size; the field
  /// stays only because the benchmark program (benchmark/delta_bench.cpp)
  /// still sets it, and goes with the next change to that program.
  std::size_t expected_resident_objects = 0;
};

class VCoverPolicy final : public CachePolicy {
 public:
  VCoverPolicy(CacheNode* cache, const VCoverOptions& options);

  void on_update(const workload::Update& u) override;
  QueryOutcome on_query(const workload::Query& q) override;
  void on_query_async(const workload::Query& q, QueryDone done) override;
  /// Crash-stop wipe (ISSUE 10): the resident store, the interaction graph,
  /// the eviction metadata, the bypass-rule counters, and the preship heat
  /// all die with the process. Instrument counters (loads, evictions)
  /// survive — they measure the experiment, not the process.
  void on_crash_restart() override;
  /// Overload degradation (ISSUE 8): under uplink pressure an all-cached
  /// query whose outstanding updates are ALL newer than its t(q) horizon
  /// is answered from the cache as-is — stale-but-within-tolerance — and
  /// skips the cover computation entirely (no update shipping, no server
  /// round trip competes with the backlog).
  void set_admission(const AdmissionOptions& options) override {
    admission_ = options;
  }
  [[nodiscard]] std::int64_t degraded_queries() const override {
    return system_->counters().degraded_queries;
  }
  [[nodiscard]] const char* name() const override { return "VCover"; }

  // ---- introspection for tests / ablation benches ----
  [[nodiscard]] const cache::CacheStore& store() const { return store_; }
  [[nodiscard]] const UpdateManager& update_manager() const {
    return update_manager_;
  }
  [[nodiscard]] std::int64_t loads() const { return loads_; }
  [[nodiscard]] std::int64_t evictions() const { return evictions_; }
  [[nodiscard]] std::int64_t cache_answers() const { return cache_answers_; }
  [[nodiscard]] std::int64_t preshipped() const { return preshipped_; }

 private:
  CacheNode* system_;  // the cache endpoint this policy drives
  VCoverOptions options_;
  cache::CacheStore store_;
  std::unique_ptr<cache::EvictionPolicy> evictor_;
  UpdateManager update_manager_;
  LoadManager load_manager_;
  std::vector<double> heat_;  // by ObjectId; preship popularity signal
  std::vector<ObjectId> missing_;  // per-query scratch
  std::vector<cache::LoadCandidate> eager_batch_;  // eager-mode scratch
  std::int64_t loads_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t cache_answers_ = 0;
  std::int64_t preshipped_ = 0;
  AdmissionOptions admission_;

  /// A fresh evictor over store_ (construction and crash restart).
  [[nodiscard]] std::unique_ptr<cache::EvictionPolicy> make_evictor() const;
  void evict_object(ObjectId o);
  void shed_overflow();
  /// True when overload pressure holds AND a cached answer for `q` (all
  /// objects resident) is still within its staleness tolerance.
  [[nodiscard]] bool can_degrade(const workload::Query& q) const;
  /// One dispatch core serves both query entry points; `tx` is the
  /// transmitter the decisions emit traffic through — synchronous
  /// (request_and_wait per call, the closed-loop golden path) or async
  /// (overlapping *_async requests correlated on one AsyncQueryContext).
  /// Both transmitters are defined in the .cpp, where the instantiations
  /// live.
  template <typename Tx>
  void dispatch_query(const workload::Query& q, QueryOutcome& outcome,
                      Tx&& tx);
  template <typename Tx>
  void apply_batch(const std::vector<cache::LoadCandidate>& batch,
                   QueryOutcome& outcome, Tx&& tx);
};

}  // namespace delta::core
