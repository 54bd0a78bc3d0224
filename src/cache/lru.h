// LRU object caching: the cost-oblivious baseline for the loading ablation
// (A3). Same batch interface as Greedy-Dual-Size so the LoadManager can be
// instantiated with either.
//
// Residents live in a HeapMap ordered by (last-use stamp, id): the heap top
// is the deterministic arg-min the old full scan computed, so victim
// selection is O(log n_resident) with byte-identical decisions. Stamps only
// grow, so a hit is O(1) (HeapMap::raise): the old stamp stays behind as
// the heap key, a lower bound re-keyed only when it reaches the heap top,
// and victims are unchanged.
#pragma once

#include <cstdint>

#include "cache/eviction_policy.h"
#include "util/heap_map.h"

namespace delta::cache {

class LruPolicy final : public EvictionPolicy {
 public:
  /// Observes `store` like GreedyDualSize; indexes the store's id range.
  explicit LruPolicy(const CacheStore* store);

  void on_access(ObjectId id) override;
  void prefetch(ObjectId id) const override { last_use_.prefetch(id); }
  const BatchDecision& decide_batch(
      const std::vector<LoadCandidate>& candidates) override;
  const std::vector<ObjectId>& shed_overflow() override;
  void forget(ObjectId id) override;
  [[nodiscard]] const char* name() const override { return "lru"; }

 private:
  const CacheStore* store_;
  std::int64_t clock_ = 0;
  util::HeapMap<ObjectId, std::int64_t> last_use_;

  // Reused scratch for the batch interface (see EvictionPolicy contract).
  BatchDecision decision_;
  std::vector<ObjectId> shed_victims_;
  std::vector<LoadCandidate> admitted_;
};

}  // namespace delta::cache
