// The three yardstick policies of §6.1:
//   NoCache  — ship every query; an algorithm doing worse is useless.
//   Replica  — full copy kept current by shipping every update (load costs
//              and cache capacity ignored, as in the paper).
//   SOptimal — the best *static* object set chosen with hindsight over the
//              whole trace (Benefit's rule with one trace-sized window,
//              offline); loads everything up front, never evicts. An online
//              algorithm close to it is outstanding.
#pragma once

#include <vector>

#include "core/async_query.h"
#include "core/cache_node.h"
#include "core/policy.h"
#include "workload/trace.h"

namespace delta::core {

class NoCachePolicy final : public CachePolicy {
 public:
  explicit NoCachePolicy(CacheNode* cache);

  void on_update(const workload::Update& u) override;
  QueryOutcome on_query(const workload::Query& q) override;
  void on_query_async(const workload::Query& q, QueryDone done) override;
  [[nodiscard]] const char* name() const override { return "NoCache"; }
  /// In-flight on_query_async contexts (tests check the slab drains).
  [[nodiscard]] const AsyncQueryPool& async_queries() const {
    return queries_;
  }

 private:
  CacheNode* system_;
  AsyncQueryPool queries_;
};

class ReplicaPolicy final : public CachePolicy {
 public:
  explicit ReplicaPolicy(CacheNode* cache);

  void on_update(const workload::Update& u) override;
  QueryOutcome on_query(const workload::Query& q) override;
  void set_nonblocking_invalidations(bool on) override { async_ship_ = on; }
  [[nodiscard]] const char* name() const override { return "Replica"; }

 private:
  CacheNode* system_;
  bool async_ship_ = false;
};

struct SOptimalOptions {
  Bytes cache_capacity;
  /// The default refines the hindsight ranking with add/drop passes against
  /// the exact replay cost, keeping the yardstick genuinely strong ("an
  /// online algorithm close to SOptimal is outstanding"). Ablation A5 turns
  /// this off to get the paper's literal Benefit-one-window ranking.
  bool local_search = true;
  /// Multi-endpoint runs: the trace split (indexed like Trace::queries)
  /// and this policy's endpoint, so hindsight only counts the queries
  /// actually routed here — otherwise every shard would "optimize" for
  /// queries it never receives. Null = single cache, all queries. The
  /// vector must outlive policy construction.
  const std::vector<std::uint32_t>* query_assignment = nullptr;
  std::uint32_t endpoint = 0;
};

class SOptimalPolicy final : public CachePolicy {
 public:
  /// Inspects the whole trace up front (it is an offline yardstick) and
  /// loads its chosen set immediately — before any event, i.e. within the
  /// warm-up window.
  SOptimalPolicy(CacheNode* cache, const workload::Trace* trace,
                 const SOptimalOptions& options);

  void on_update(const workload::Update& u) override;
  QueryOutcome on_query(const workload::Query& q) override;
  void on_query_async(const workload::Query& q, QueryDone done) override;
  [[nodiscard]] const char* name() const override { return "SOptimal"; }

  /// The static set in ascending id order (allocates).
  [[nodiscard]] std::vector<ObjectId> chosen() const;
  /// In-flight on_query_async contexts (tests check the slab drains).
  [[nodiscard]] const AsyncQueryPool& async_queries() const {
    return queries_;
  }

 private:
  CacheNode* system_;
  std::vector<bool> chosen_;  // by ObjectId
  AsyncQueryPool queries_;

  /// Bounds-checked membership (false for an out-of-range id).
  [[nodiscard]] bool chooses(ObjectId o) const;
  static std::vector<bool> choose_set(const workload::Trace& trace,
                                      const SOptimalOptions& options);
};

}  // namespace delta::core
