#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "cache/cache_store.h"
#include "cache/gds.h"
#include "cache/lru.h"
#include "util/rng.h"

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

// ---- Victim order against a scan ------------------------------------------
//
// Greedy-Dual-Size and LRU keep their residents in a heap whose hit path
// raises a priority lazily. The reference models below keep the same
// priorities in a plain map and pick every victim by a brute-force
// (credit or stamp, id) arg-min scan, as the policies did before they had
// a heap. Seeded random mixes of hits, batches, growth sheds and forgets
// over equal-size objects (so credits and stamps tie often) must produce
// the same evictions, admissions and credits step by step.

/// Greedy-Dual-Size by scanning: residents' credits and the inflation L.
struct GdsByScan {
  double inflation = 0.0;
  std::map<std::int64_t, std::pair<double, double>> residents;  // credit, ratio

  void on_access(ObjectId id) {
    auto& [credit, ratio] = residents.at(id.value());
    credit = inflation + ratio;
  }

  /// The (credit, id) arg-min resident.
  std::int64_t min_resident() const {
    auto best = residents.begin();
    for (auto it = residents.begin(); it != residents.end(); ++it) {
      if (it->second.first < best->second.first) best = it;
    }
    return best->first;
  }

  BatchDecision decide_batch(const CacheStore& store,
                             const std::vector<LoadCandidate>& candidates) {
    struct Candidate {
      std::int64_t id;
      Bytes size;
      double credit;
      double ratio;
      bool dropped = false;
    };
    std::vector<Candidate> batch;
    Bytes total = store.used();
    for (const LoadCandidate& c : candidates) {
      if (c.size > store.capacity()) continue;
      const double r = c.load_cost.as_double() / c.size.as_double();
      batch.push_back({c.id.value(), c.size, inflation + r, r});
      total += c.size;
    }
    BatchDecision d;
    while (total > store.capacity()) {
      // The arg-min over residents and the candidates still in the batch.
      Candidate* best = nullptr;
      for (Candidate& c : batch) {
        if (c.dropped) continue;
        if (best == nullptr || c.credit < best->credit ||
            (c.credit == best->credit && c.id < best->id)) {
          best = &c;
        }
      }
      if (!residents.empty()) {
        const std::int64_t r = min_resident();
        const double credit = residents.at(r).first;
        if (best == nullptr || credit < best->credit ||
            (credit == best->credit && r < best->id)) {
          total -= store.bytes_of(ObjectId{r});
          inflation = std::max(inflation, credit);
          d.evict.push_back(ObjectId{r});
          residents.erase(r);
          continue;
        }
      }
      if (best == nullptr) break;
      best->dropped = true;
      total -= best->size;
      inflation = std::max(inflation, best->credit);
    }
    std::sort(batch.begin(), batch.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.credit != b.credit ? a.credit < b.credit
                                            : a.id < b.id;
              });
    for (const Candidate& c : batch) {
      if (c.dropped) continue;
      d.load.push_back(ObjectId{c.id});
      residents[c.id] = {c.credit, c.ratio};
    }
    return d;
  }

  std::vector<ObjectId> shed_overflow(const CacheStore& store) {
    std::vector<ObjectId> victims;
    Bytes used = store.used();
    while (used > store.capacity()) {
      const std::int64_t r = min_resident();
      used -= store.bytes_of(ObjectId{r});
      inflation = std::max(inflation, residents.at(r).first);
      victims.push_back(ObjectId{r});
      residents.erase(r);
    }
    return victims;
  }

  void forget(ObjectId id) { residents.erase(id.value()); }
};

/// LRU by scanning: residents' last-use stamps.
struct LruByScan {
  std::int64_t clock = 0;
  std::map<std::int64_t, std::int64_t> residents;  // stamp

  void on_access(ObjectId id) { residents.at(id.value()) = ++clock; }

  /// The (stamp, id) arg-min resident.
  std::int64_t min_resident() const {
    auto best = residents.begin();
    for (auto it = residents.begin(); it != residents.end(); ++it) {
      if (it->second < best->second) best = it;
    }
    return best->first;
  }

  BatchDecision decide_batch(const CacheStore& store,
                             const std::vector<LoadCandidate>& candidates) {
    std::vector<LoadCandidate> admitted;
    Bytes total = store.used();
    for (const LoadCandidate& c : candidates) {
      if (c.size > store.capacity()) continue;
      admitted.push_back(c);
      total += c.size;
    }
    BatchDecision d;
    while (total > store.capacity() && !residents.empty()) {
      const std::int64_t r = min_resident();
      total -= store.bytes_of(ObjectId{r});
      d.evict.push_back(ObjectId{r});
      residents.erase(r);
    }
    while (total > store.capacity() && !admitted.empty()) {
      total -= admitted.back().size;
      admitted.pop_back();
    }
    for (const LoadCandidate& c : admitted) {
      d.load.push_back(c.id);
      residents[c.id.value()] = ++clock;
    }
    return d;
  }

  std::vector<ObjectId> shed_overflow(const CacheStore& store) {
    std::vector<ObjectId> victims;
    Bytes used = store.used();
    while (used > store.capacity()) {
      const std::int64_t r = min_resident();
      used -= store.bytes_of(ObjectId{r});
      victims.push_back(ObjectId{r});
      residents.erase(r);
    }
    return victims;
  }

  void forget(ObjectId id) { residents.erase(id.value()); }
};

void expect_same_state(const GreedyDualSize& policy, const GdsByScan& scan) {
  EXPECT_EQ(policy.inflation(), scan.inflation);
  for (const auto& [id, credit_ratio] : scan.residents) {
    EXPECT_EQ(policy.credit_of(ObjectId{id}), credit_ratio.first)
        << "id " << id;
  }
}
void expect_same_state(const LruPolicy&, const LruByScan&) {}

/// Drives `policy` and `scan` through one seeded random run over a
/// 100-byte cache of 10-byte objects (cost ratio 1 or 2, so credits tie)
/// and expects identical decisions and state after every step.
template <typename Policy, typename Scan>
void expect_victims_match_scan(std::uint64_t seed) {
  constexpr std::int64_t kIds = 32;
  CacheStore store{Bytes{100}, kIds};
  Policy policy{&store};
  Scan scan;
  util::Rng rng{seed};
  std::size_t evictions = 0;
  for (int step = 0; step < 4000; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    const std::vector<ObjectId> residents = store.resident_objects();
    const auto any_resident = [&] {
      return residents[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(residents.size()) - 1))];
    };
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    if (op <= 4 && !residents.empty()) {
      const ObjectId id = any_resident();
      policy.on_access(id);
      scan.on_access(id);
    } else if (op <= 7) {
      std::vector<LoadCandidate> batch;
      const std::int64_t want = rng.uniform_int(1, 4);
      for (std::int64_t k = 0; k < 3 * want && std::ssize(batch) < want;
           ++k) {
        const std::int64_t id = rng.uniform_int(0, kIds - 1);
        if (store.contains(ObjectId{id}) ||
            std::any_of(batch.begin(), batch.end(), [&](const auto& c) {
              return c.id.value() == id;
            })) {
          continue;
        }
        // Now and then an object larger than the whole cache.
        const std::int64_t size = rng.bernoulli(0.02) ? 101 : 10;
        batch.push_back(cand(id, size, size * rng.uniform_int(1, 2)));
      }
      const BatchDecision want_d = scan.decide_batch(store, batch);
      const BatchDecision& got = policy.decide_batch(batch);
      ASSERT_EQ(got.evict, want_d.evict);
      ASSERT_EQ(got.load, want_d.load);
      evictions += got.evict.size();
      apply(store, got, batch);
    } else if (op == 8 && !residents.empty()) {
      store.grow(any_resident(), Bytes{rng.uniform_int(1, 15)});
      const std::vector<ObjectId> want_v = scan.shed_overflow(store);
      const std::vector<ObjectId>& got = policy.shed_overflow();
      ASSERT_EQ(got, want_v);
      evictions += got.size();
      for (const ObjectId v : got) store.evict(v);
    } else if (op == 9 && !residents.empty()) {
      const ObjectId id = any_resident();
      store.evict(id);
      policy.forget(id);
      scan.forget(id);
    }
    ASSERT_LE(store.used(), store.capacity());
    ASSERT_EQ(store.object_count(), scan.residents.size());
    expect_same_state(policy, scan);
  }
  EXPECT_GT(evictions, 500u);  // the run keeps the cache under pressure
}

TEST(VictimOrderTest, GdsEvictsAndAdmitsAsAScanWould) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    expect_victims_match_scan<GreedyDualSize, GdsByScan>(seed);
  }
}

TEST(VictimOrderTest, LruEvictsAndAdmitsAsAScanWould) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    expect_victims_match_scan<LruPolicy, LruByScan>(seed);
  }
}

}  // namespace
}  // namespace delta::cache
