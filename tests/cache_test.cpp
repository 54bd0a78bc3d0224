#include <gtest/gtest.h>

#include "cache/cache_store.h"
#include "cache/gds.h"
#include "cache/lru.h"

namespace delta::cache {
namespace {

constexpr std::size_t kObjects = 8;  // ids the tests may name

ObjectId oid(std::int64_t v) { return ObjectId{v}; }

LoadCandidate cand(std::int64_t id, std::int64_t size,
                   std::int64_t cost = -1) {
  return LoadCandidate{oid(id), Bytes{size},
                       Bytes{cost < 0 ? size : cost}};
}

void apply(CacheStore& store, const BatchDecision& d,
           const std::vector<LoadCandidate>& candidates) {
  for (const ObjectId v : d.evict) store.evict(v);
  for (const ObjectId l : d.load) {
    for (const auto& c : candidates) {
      if (c.id == l) {
        store.load(l, c.size);
        break;
      }
    }
  }
}

TEST(CacheStoreTest, LoadEvictAccounting) {
  CacheStore store{Bytes{100}, kObjects};
  store.load(oid(1), Bytes{40});
  store.load(oid(2), Bytes{60});
  EXPECT_EQ(store.used().count(), 100);
  EXPECT_TRUE(store.contains(oid(1)));
  EXPECT_THROW(store.load(oid(3), Bytes{1}), std::logic_error);  // full
  store.evict(oid(1));
  EXPECT_EQ(store.used().count(), 60);
  EXPECT_FALSE(store.contains(oid(1)));
  EXPECT_THROW(store.evict(oid(1)), std::logic_error);
}

TEST(CacheStoreTest, DoubleLoadRejected) {
  CacheStore store{Bytes{100}, kObjects};
  store.load(oid(1), Bytes{10});
  EXPECT_THROW(store.load(oid(1), Bytes{10}), std::logic_error);
}

TEST(CacheStoreTest, GrowthMayOverflowUntilShed) {
  CacheStore store{Bytes{100}, kObjects};
  store.load(oid(1), Bytes{90});
  store.grow(oid(1), Bytes{20});
  EXPECT_TRUE(store.over_capacity());
  EXPECT_EQ(store.bytes_of(oid(1)).count(), 110);
  store.evict(oid(1));
  EXPECT_FALSE(store.over_capacity());
}

TEST(CacheStoreTest, StalenessFlags) {
  CacheStore store{Bytes{100}, kObjects};
  store.load(oid(1), Bytes{10});
  EXPECT_FALSE(store.is_stale(oid(1)));
  store.mark_stale(oid(1));
  EXPECT_TRUE(store.is_stale(oid(1)));
  store.mark_fresh(oid(1));
  EXPECT_FALSE(store.is_stale(oid(1)));
}

TEST(CacheStoreTest, ClearResets) {
  CacheStore store{Bytes{100}, kObjects};
  store.load(oid(1), Bytes{10});
  store.clear();
  EXPECT_EQ(store.used().count(), 0);
  EXPECT_EQ(store.object_count(), 0u);
}

TEST(GdsTest, AdmitsWhenSpaceAvailable) {
  CacheStore store{Bytes{100}, kObjects};
  GreedyDualSize gds{&store};
  const std::vector<LoadCandidate> batch{cand(1, 30), cand(2, 40)};
  const auto d = gds.decide_batch(batch);
  EXPECT_EQ(d.load.size(), 2u);
  EXPECT_TRUE(d.evict.empty());
  apply(store, d, batch);
  EXPECT_EQ(store.used().count(), 70);
}

TEST(GdsTest, RejectsObjectLargerThanCache) {
  CacheStore store{Bytes{100}, kObjects};
  GreedyDualSize gds{&store};
  const std::vector<LoadCandidate> batch{cand(1, 101)};
  const auto d = gds.decide_batch(batch);
  EXPECT_TRUE(d.load.empty());
  EXPECT_TRUE(d.evict.empty());
}

TEST(GdsTest, EvictsLowestCreditResident) {
  CacheStore store{Bytes{100}, kObjects};
  GreedyDualSize gds{&store};
  const std::vector<LoadCandidate> b1{cand(1, 50), cand(2, 50)};
  apply(store, gds.decide_batch(b1), b1);
  // Access object 2: its credit refreshes above object 1's.
  gds.on_access(oid(2));
  const std::vector<LoadCandidate> b2{cand(3, 40)};
  const auto d = gds.decide_batch(b2);
  ASSERT_EQ(d.load.size(), 1u);
  ASSERT_EQ(d.evict.size(), 1u);
  EXPECT_EQ(d.evict[0], oid(1));  // least credit
  apply(store, d, b2);
  EXPECT_TRUE(store.contains(oid(2)));
  EXPECT_TRUE(store.contains(oid(3)));
}

TEST(GdsTest, LazyBatchNeverLoadsThenEvictsSibling) {
  CacheStore store{Bytes{100}, kObjects};
  GreedyDualSize gds{&store};
  // Batch exceeding capacity: some candidates are simply not loaded; no
  // resident churn happens for siblings of the same query.
  const std::vector<LoadCandidate> batch{cand(1, 60), cand(2, 60),
                                         cand(3, 60)};
  const auto d = gds.decide_batch(batch);
  EXPECT_EQ(d.load.size(), 1u);
  EXPECT_TRUE(d.evict.empty());
  apply(store, d, batch);
  EXPECT_LE(store.used().count(), 100);
}

TEST(GdsTest, InflationRisesWithEvictions) {
  CacheStore store{Bytes{100}, kObjects};
  GreedyDualSize gds{&store};
  EXPECT_DOUBLE_EQ(gds.inflation(), 0.0);
  const std::vector<LoadCandidate> b1{cand(1, 100)};
  apply(store, gds.decide_batch(b1), b1);
  const std::vector<LoadCandidate> b2{cand(2, 100)};
  const auto d = gds.decide_batch(b2);
  ASSERT_EQ(d.evict.size(), 1u);
  EXPECT_GT(gds.inflation(), 0.0);
}

TEST(GdsTest, HigherCostPerByteSurvivesLonger) {
  CacheStore store{Bytes{100}, kObjects};
  GreedyDualSize gds{&store};
  // Object 1 is costly to reload per byte; object 2 is cheap.
  const std::vector<LoadCandidate> b1{cand(1, 50, 200), cand(2, 50, 50)};
  apply(store, gds.decide_batch(b1), b1);
  const std::vector<LoadCandidate> b2{cand(3, 50)};
  const auto d = gds.decide_batch(b2);
  ASSERT_EQ(d.evict.size(), 1u);
  EXPECT_EQ(d.evict[0], oid(2));
}

TEST(GdsTest, ShedOverflowEvictsLowestCredit) {
  CacheStore store{Bytes{100}, kObjects};
  GreedyDualSize gds{&store};
  // Object 2 is three times as expensive to reload per byte: higher credit.
  const std::vector<LoadCandidate> b{cand(1, 50, 50), cand(2, 50, 150)};
  apply(store, gds.decide_batch(b), b);
  store.grow(oid(2), Bytes{30});
  ASSERT_TRUE(store.over_capacity());
  const auto victims = gds.shed_overflow();
  for (const ObjectId v : victims) store.evict(v);
  EXPECT_FALSE(store.over_capacity());
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], oid(1));  // lowest credit goes first
}

TEST(GdsTest, AccessAfterInflationProtectsObject) {
  CacheStore store{Bytes{100}, kObjects};
  GreedyDualSize gds{&store};
  const std::vector<LoadCandidate> b1{cand(1, 50), cand(2, 50)};
  apply(store, gds.decide_batch(b1), b1);
  // Force an eviction to raise the inflation value L.
  const std::vector<LoadCandidate> b2{cand(3, 50)};
  const auto d2 = gds.decide_batch(b2);
  apply(store, d2, b2);
  ASSERT_EQ(d2.evict.size(), 1u);
  EXPECT_GT(gds.inflation(), 0.0);
  // The survivor of {1,2} now has a stale (low) credit; accessing it
  // refreshes its credit above the newly-loaded object's eviction point.
  const ObjectId survivor = d2.evict[0] == oid(1) ? oid(2) : oid(1);
  gds.on_access(survivor);
  EXPECT_GT(gds.credit_of(survivor), gds.inflation());
}

TEST(GdsTest, ForgetDropsTracking) {
  CacheStore store{Bytes{100}, kObjects};
  GreedyDualSize gds{&store};
  const std::vector<LoadCandidate> b{cand(1, 50)};
  apply(store, gds.decide_batch(b), b);
  store.evict(oid(1));
  gds.forget(oid(1));
  EXPECT_THROW(gds.on_access(oid(1)), std::logic_error);
}

TEST(LruTest, EvictsOldestFirst) {
  CacheStore store{Bytes{100}, kObjects};
  LruPolicy lru{&store};
  const std::vector<LoadCandidate> b1{cand(1, 40), cand(2, 40)};
  apply(store, lru.decide_batch(b1), b1);
  lru.on_access(oid(1));  // 2 is now oldest
  const std::vector<LoadCandidate> b2{cand(3, 40)};
  const auto d = lru.decide_batch(b2);
  ASSERT_EQ(d.evict.size(), 1u);
  EXPECT_EQ(d.evict[0], oid(2));
}

TEST(LruTest, DropsTrailingCandidatesWhenBatchTooBig) {
  CacheStore store{Bytes{100}, kObjects};
  LruPolicy lru{&store};
  const std::vector<LoadCandidate> b{cand(1, 70), cand(2, 70)};
  const auto d = lru.decide_batch(b);
  EXPECT_EQ(d.load.size(), 1u);
  EXPECT_EQ(d.load[0], oid(1));
}

TEST(LruTest, ShedOverflow) {
  CacheStore store{Bytes{100}, kObjects};
  LruPolicy lru{&store};
  const std::vector<LoadCandidate> b{cand(1, 60), cand(2, 40)};
  apply(store, lru.decide_batch(b), b);
  store.grow(oid(2), Bytes{30});
  const auto victims = lru.shed_overflow();
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], oid(1));  // oldest
}

}  // namespace
}  // namespace delta::cache
