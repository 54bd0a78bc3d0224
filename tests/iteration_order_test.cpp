// Insertion-history-independence regression suite for the cache layer.
//
// The store keeps one row per object id and walks residents in ascending
// id order; the eviction policies' heaps have history-dependent internal
// layouts. Every decision must depend only on the logical cache state:
// arg-min folds carry explicit (value, id) tie-breaks, and batch decisions
// are totally ordered by an explicit sort. This suite builds the *same
// logical cache state* through different (shuffled, churned) insertion
// histories and asserts the observable decisions — and the resident walk
// order — are identical. Together with tests/sim_golden_test.cpp (which
// pins the end-to-end figures), this is the regression net for "no policy
// decision depends on how the state was built".
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/cache_store.h"
#include "cache/gds.h"
#include "cache/lru.h"
#include "util/rng.h"

namespace delta::cache {
namespace {

constexpr Bytes kCapacity{10'000};
constexpr std::size_t kIds = 200;  // ids the tests may name

struct CacheWorld {
  CacheStore store{kCapacity, kIds};
  GreedyDualSize gds{&store};

  // gds holds a pointer to the sibling store: the world must stay put.
  CacheWorld() = default;
  CacheWorld(const CacheWorld&) = delete;
  CacheWorld& operator=(const CacheWorld&) = delete;

  /// Loads `id` through the policy path so store and policy stay in sync.
  void load(ObjectId id, Bytes size) {
    std::vector<LoadCandidate> batch{{id, size, size}};
    const BatchDecision& d = gds.decide_batch(batch);
    for (const ObjectId v : d.evict) store.evict(v);
    for (const ObjectId o : d.load) store.load(o, size);
  }
  void evict(ObjectId id) {
    store.evict(id);
    gds.forget(id);
  }
};

/// Populates a world with objects 0..9 (1000 B each), arriving in the given
/// order, with extra churn entries loaded and evicted along the way so the
/// heap layout differs per history.
void populate_world(CacheWorld& w, const std::vector<std::int64_t>& order,
                    const std::vector<std::int64_t>& churn) {
  std::size_t churn_cursor = 0;
  for (const std::int64_t id : order) {
    // Interleave a transient object to scramble slot layout.
    if (churn_cursor < churn.size()) {
      const ObjectId transient{100 + churn[churn_cursor++]};
      w.load(transient, Bytes{10});
      w.evict(transient);
    }
    w.load(ObjectId{id}, Bytes{1000});
  }
}

std::vector<std::int64_t> base_order() {
  return {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
}

TEST(IterationOrderTest, GdsBatchDecisionIndependentOfInsertionOrder) {
  std::vector<std::int64_t> shuffled = base_order();
  util::Rng rng{99};
  rng.shuffle(shuffled);

  CacheWorld a;
  populate_world(a, base_order(), {});
  CacheWorld b;
  populate_world(b, shuffled, {5, 3, 7, 1, 9, 0, 2});

  // Same logical state: same residents, same credits (all entered with the
  // same cost ratio at inflation 0 and were never accessed).
  ASSERT_EQ(a.store.object_count(), b.store.object_count());
  for (const std::int64_t id : base_order()) {
    ASSERT_TRUE(a.store.contains(ObjectId{id}));
    ASSERT_TRUE(b.store.contains(ObjectId{id}));
    ASSERT_EQ(a.gds.credit_of(ObjectId{id}), b.gds.credit_of(ObjectId{id}));
  }

  // A batch that forces evictions: both worlds must pick identical victims
  // in identical order, regardless of their (different) heap layouts.
  std::vector<LoadCandidate> batch{{ObjectId{50}, Bytes{2500}, Bytes{2500}},
                                   {ObjectId{51}, Bytes{2500}, Bytes{2500}}};
  const BatchDecision da = a.gds.decide_batch(batch);
  const BatchDecision db = b.gds.decide_batch(batch);
  EXPECT_EQ(da.load, db.load);
  EXPECT_EQ(da.evict, db.evict);
  EXPECT_FALSE(da.evict.empty());  // the batch must actually displace
}

TEST(IterationOrderTest, GdsShedOverflowIndependentOfInsertionOrder) {
  std::vector<std::int64_t> shuffled = base_order();
  util::Rng rng{123};
  rng.shuffle(shuffled);

  CacheWorld a;
  populate_world(a, base_order(), {2, 4, 6});
  CacheWorld b;
  populate_world(b, shuffled, {8, 1});

  // Touch the same subset in both worlds so credits diverge identically.
  for (const std::int64_t id : {3, 7, 7, 1}) {
    a.gds.on_access(ObjectId{id});
    b.gds.on_access(ObjectId{id});
  }
  // Grow one object past capacity, then shed: victim sequences must match.
  a.store.grow(ObjectId{4}, Bytes{2500});
  b.store.grow(ObjectId{4}, Bytes{2500});
  const std::vector<ObjectId> va = a.gds.shed_overflow();
  const std::vector<ObjectId> vb = b.gds.shed_overflow();
  EXPECT_EQ(va, vb);
  EXPECT_FALSE(va.empty());
}

TEST(IterationOrderTest, LruVictimIndependentOfInsertionOrder) {
  // Two LRU worlds with identical access clocks but different heap
  // layouts: load order A is sequential, order B interleaves erases. The
  // clock stamps are assigned by explicit on_access calls below, so
  // last_use_ CONTENT matches while heap positions differ.
  CacheStore store_a{kCapacity, kIds};
  CacheStore store_b{kCapacity, kIds};
  LruPolicy lru_a{&store_a};
  LruPolicy lru_b{&store_b};

  const auto load = [](CacheStore& store, LruPolicy& lru, std::int64_t id) {
    std::vector<LoadCandidate> batch{{ObjectId{id}, Bytes{1000}, Bytes{1000}}};
    const BatchDecision& d = lru.decide_batch(batch);
    ASSERT_TRUE(d.evict.empty());
    for (const ObjectId o : d.load) store.load(o, Bytes{1000});
  };
  for (std::int64_t id = 0; id < 8; ++id) load(store_a, lru_a, id);
  // World B: same ids, loaded with interleaved transient churn.
  for (std::int64_t id = 7; id >= 0; --id) {
    load(store_b, lru_b, 100 + id);  // transient
    store_b.evict(ObjectId{100 + id});
    lru_b.forget(ObjectId{100 + id});
    load(store_b, lru_b, id);
  }
  // Equalize the recency stamps with one identical access pass.
  for (std::int64_t id = 0; id < 8; ++id) {
    lru_a.on_access(ObjectId{id});
    lru_b.on_access(ObjectId{id});
  }
  // Overflow both: the eviction sequences must be identical (oldest first,
  // ties by id — never by heap position).
  store_a.grow(ObjectId{3}, Bytes{2100});
  store_b.grow(ObjectId{3}, Bytes{2100});
  EXPECT_EQ(lru_a.shed_overflow(), lru_b.shed_overflow());
}

TEST(IterationOrderTest, ResidentWalksVisitAscendingIdsForAnyHistory) {
  std::vector<std::int64_t> shuffled = base_order();
  util::Rng rng{7};
  rng.shuffle(shuffled);
  CacheWorld a;
  populate_world(a, base_order(), {1, 2, 3, 4});
  CacheWorld b;
  populate_world(b, shuffled, {});
  // A third history: descending loads, then evict and reload a few.
  CacheWorld c;
  std::vector<std::int64_t> descending = base_order();
  std::reverse(descending.begin(), descending.end());
  populate_world(c, descending, {9, 8});
  for (const std::int64_t id : {6, 2, 8}) c.evict(ObjectId{id});
  for (const std::int64_t id : {8, 2, 6}) c.load(ObjectId{id}, Bytes{1000});

  std::vector<ObjectId> expected;
  for (const std::int64_t id : base_order()) expected.push_back(ObjectId{id});
  for (const CacheWorld* w : {&a, &b, &c}) {
    std::vector<ObjectId> walked;
    w->store.for_each_resident(
        [&](ObjectId o, Bytes) { walked.push_back(o); });
    EXPECT_EQ(walked, expected);
    EXPECT_EQ(w->store.resident_objects(), expected);
  }
}

}  // namespace
}  // namespace delta::cache
