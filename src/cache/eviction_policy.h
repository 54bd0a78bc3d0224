// Object-caching algorithm interface (the paper's A_obj).
//
// The LoadManager (Fig. 6) is parameterized by an object caching algorithm:
// the paper uses a *lazy* Greedy-Dual-Size. The interface is batch-oriented
// precisely to support that laziness: all load candidates generated by one
// query are decided together, so the policy never loads an object only to
// evict it for a sibling candidate of the same query.
#pragma once

#include <vector>

#include "cache/cache_store.h"
#include "util/types.h"

namespace delta::cache {

struct LoadCandidate {
  ObjectId id;
  /// Current size of the object at the repository (what loading costs in
  /// cache space).
  Bytes size;
  /// ν_load(o): bytes on the wire to load it (size plus bulk-copy framing).
  Bytes load_cost;
};

struct BatchDecision {
  /// Candidates to admit (caller performs the actual loads + traffic).
  std::vector<ObjectId> load;
  /// Previously-resident objects to evict to make room.
  std::vector<ObjectId> evict;
};

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  /// A resident object served a query (refreshes its retention credit).
  virtual void on_access(ObjectId id) = 0;

  /// Starts pulling the rows on_access(id) will read. A hint only: it
  /// reads no value, writes no state and ignores an out-of-range id. The
  /// default does nothing.
  virtual void prefetch(ObjectId /*id*/) const {}

  /// Decides, lazily over the whole batch, which candidates to admit and
  /// which victims to evict. Candidates must not be resident. The decision
  /// is feasible: applying evictions then loads respects capacity.
  /// The returned reference points at policy-owned scratch and is valid
  /// only until the next decide_batch call (keeps the per-query replay
  /// path allocation-free).
  virtual const BatchDecision& decide_batch(
      const std::vector<LoadCandidate>& candidates) = 0;

  /// Pick victims to bring the store back under capacity after growth.
  /// Returns objects to evict (caller applies them). Same scratch-lifetime
  /// contract as decide_batch.
  virtual const std::vector<ObjectId>& shed_overflow() = 0;

  /// The object left the cache for reasons outside this policy's control
  /// (capacity overflow shed by another component, failure recovery).
  virtual void forget(ObjectId id) = 0;

  [[nodiscard]] virtual const char* name() const = 0;
};

}  // namespace delta::cache
