// Completion correlation for the policies' on_query_async implementations.
//
// A policy dispatching one query may issue several overlapping requests
// (update ships, the query ship, object loads). Each request parks a
// completion against the query's context; the query's QueryDone fires
// when the last of them lands. The context starts with one artificial
// reference — the dispatch barrier — released by the policy after it has
// issued everything, so a completion that happens to be delivered inline
// (synchronous transport, or the DelayedTransport fast path) cannot fire
// QueryDone while later requests of the same query are still unsent.
//
// Contexts live in a per-policy slab (AsyncQueryPool), addressed by slot
// and recycled through a free list, and every request completion is a
// typed CacheNode::Completion {pool, slot}: once the slab has grown to the
// policy's deepest in-flight window, an async query allocates nothing.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/cache_node.h"
#include "core/policy.h"
#include "util/check.h"

namespace delta::core {

struct AsyncQueryContext {
  QueryOutcome outcome;
  CachePolicy::QueryDone done;
  /// Outstanding completions + the dispatch barrier.
  int remaining = 0;
  /// Next free slot while this one is free.
  std::uint32_t next_free = 0;
};

/// The slab of one policy's in-flight query contexts.
class AsyncQueryPool {
 public:
  /// Takes a clean context (outcome at its defaults) holding the dispatch
  /// barrier and returns its slot. DCHECKs the re-entrancy rule: a
  /// QueryDone must not begin a query on the policy that is completing it.
  std::uint32_t begin(CachePolicy::QueryDone done) {
    DELTA_DCHECK(!completing_);
    DELTA_DCHECK(done.fn != nullptr);
    if (free_head_ == kNone) {
      free_head_ = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back().next_free = kNone;
    }
    const std::uint32_t slot = free_head_;
    AsyncQueryContext& ctx = slots_[slot];
    free_head_ = ctx.next_free;
    ctx.done = done;
    ctx.remaining = 1;
    ++in_flight_;
    return slot;
  }

  /// The reference is valid until the next begin() (the slab may grow).
  [[nodiscard]] AsyncQueryContext& operator[](std::uint32_t slot) {
    return slots_[slot];
  }

  /// Releases one reference; the last release fires QueryDone, then resets
  /// the context and frees its slot.
  void step(std::uint32_t slot) {
    AsyncQueryContext& ctx = slots_[slot];
    DELTA_DCHECK(ctx.remaining > 0);
    if (--ctx.remaining > 0) return;
    completing_ = true;
    ctx.done(ctx.outcome);
    completing_ = false;
    // Back to the defaults, keeping shipped_update_ids' capacity so a
    // reused slot does not allocate for it again.
    std::vector<UpdateId> ids = std::move(ctx.outcome.shipped_update_ids);
    ids.clear();
    ctx.outcome = QueryOutcome{};
    ctx.outcome.shipped_update_ids = std::move(ids);
    ctx.done = {};
    ctx.next_free = free_head_;
    free_head_ = slot;
    --in_flight_;
  }

  /// Queries begun whose QueryDone has not fired yet.
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  /// Contexts the slab holds (the deepest in-flight window so far).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  std::vector<AsyncQueryContext> slots_;
  std::uint32_t free_head_ = kNone;
  std::size_t in_flight_ = 0;
  bool completing_ = false;
};

/// Transmitter issuing a policy's per-query traffic through the CacheNode
/// non-blocking API, correlated on one pooled context. Mirrors the sync
/// transmitter the policies use from on_query (see e.g. SyncQueryTx in
/// vcover_policy.cpp); the dispatch logic is shared, only the transmitter
/// differs.
struct AsyncQueryTx {
  CacheNode* cache;
  AsyncQueryPool* pool;
  std::uint32_t slot;

  void ship_update(const workload::Update& u) {
    ++(*pool)[slot].remaining;
    cache->ship_update_async(u, {&AsyncQueryTx::step, pool, slot});
  }
  void ship_query(const workload::Query& q, QueryOutcome&) {
    ++(*pool)[slot].remaining;
    cache->ship_query_async(q, {&AsyncQueryTx::record_result, pool, slot});
  }
  void load_object(ObjectId o) {
    ++(*pool)[slot].remaining;
    cache->load_object_async(o, {&AsyncQueryTx::step, pool, slot});
  }

  static void step(void* pool, std::uint64_t slot, Bytes) {
    static_cast<AsyncQueryPool*>(pool)->step(
        static_cast<std::uint32_t>(slot));
  }
  static void record_result(void* pool, std::uint64_t slot, Bytes result) {
    auto& p = *static_cast<AsyncQueryPool*>(pool);
    p[static_cast<std::uint32_t>(slot)].outcome.result_bytes = result;
    p.step(static_cast<std::uint32_t>(slot));
  }
};

}  // namespace delta::core
