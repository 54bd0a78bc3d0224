// Greedy-Dual-Size (Cao & Irani 1997), the paper's object caching algorithm,
// in the lazy batch form the LoadManager requires (§4, "Managing Loads").
//
// Each resident object carries a retention credit H = L + cost/size, where L
// is the global inflation value. Hits refresh H; evictions set L to the
// victim's H, aging everything else relatively. Because cost here is the
// object's load cost (≈ its size), the cost/size ratio is near 1 and GDS
// degrades gracefully toward recency-based aging for equal-sized objects
// while still favoring objects that are expensive to re-load per byte.
//
// Residents live in a HeapMap ordered by (credit, id) — the same tie-broken
// total order the batch sort and shed arg-min used to compute by scanning —
// so every victim selection is O(log n_resident) instead of O(n_resident),
// and decisions are byte-identical to the scan implementation. L never
// falls, so a hit only raises a credit: on_access is O(1) (HeapMap::raise).
// The resident's heap key stays behind as a lower bound of its credit and
// is re-keyed only when it reaches the heap top, so victims are unchanged.
#pragma once

#include "cache/eviction_policy.h"
#include "util/heap_map.h"

namespace delta::cache {

class GreedyDualSize final : public EvictionPolicy {
 public:
  /// The policy observes (and stays consistent with) `store`, but never
  /// mutates it: callers apply returned decisions and keep both in sync.
  /// Its side index covers the store's id range.
  explicit GreedyDualSize(const CacheStore* store);

  void on_access(ObjectId id) override;
  void prefetch(ObjectId id) const override { residents_.prefetch(id); }
  const BatchDecision& decide_batch(
      const std::vector<LoadCandidate>& candidates) override;
  const std::vector<ObjectId>& shed_overflow() override;
  void forget(ObjectId id) override;
  [[nodiscard]] const char* name() const override { return "gds-lazy"; }

  [[nodiscard]] double inflation() const { return inflation_; }
  [[nodiscard]] double credit_of(ObjectId id) const;

 private:
  /// Heap priority: ordered by credit alone (the heap adds the id
  /// tie-break); carries the cached cost/size ratio along so refreshes
  /// need no second lookup.
  struct Priority {
    double credit = 0.0;
    double cost_ratio = 1.0;  // load cost / size, cached for refreshes
    friend bool operator<(const Priority& a, const Priority& b) {
      return a.credit < b.credit;
    }
  };
  struct Candidate {
    ObjectId id;
    Bytes size;
    double credit;
    double cost_ratio;
  };

  const CacheStore* store_;
  double inflation_ = 0.0;
  util::HeapMap<ObjectId, Priority> residents_;

  // Reused scratch for the batch interface (see EvictionPolicy contract).
  BatchDecision decision_;
  std::vector<ObjectId> shed_victims_;
  std::vector<Candidate> batch_;
  std::vector<bool> dropped_;
};

}  // namespace delta::cache
