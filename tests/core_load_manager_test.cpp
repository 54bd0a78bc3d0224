// LoadManager unit tests (paper Fig. 6): the bypass-caching rule in both
// implementations — exact per-object counters, and the paper's randomized
// attribution that matches the rule in expectation.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/load_manager.h"

namespace delta::core {
namespace {

workload::Query query_costing(std::int64_t cost) {
  workload::Query q;
  q.cost = Bytes{cost};
  return q;
}

constexpr std::size_t kObjects = 64;  // ids the tests may name

/// Fixed-size world: every object is `size` bytes, loads cost `load_cost`.
struct Sizes {
  Bytes size{1000};
  Bytes load_cost{1000};
  [[nodiscard]] auto size_fn() const {
    return [s = size](ObjectId) { return s; };
  }
  [[nodiscard]] auto cost_fn() const {
    return [c = load_cost](ObjectId) { return c; };
  }
};

/// Runs one attribution walk and returns the number of proposed candidates.
/// (consider() shuffles the missing list in place, so feed it a copy.)
template <typename SizeFn, typename CostFn>
std::int64_t propose(LoadManager& lm, const workload::Query& q,
                     std::vector<ObjectId> missing, SizeFn&& size_fn,
                     CostFn&& cost_fn) {
  return static_cast<std::int64_t>(
      lm.consider(q, missing, size_fn, cost_fn).size());
}

// Counter mode: the object is proposed exactly once per l(o) bytes of
// shipped-query demand attributed to it — queries of cost c propose every
// ceil(l/c)-th query and never in between.
TEST(LoadManagerTest, CounterModeProposesExactlyOncePerLoadCost) {
  LoadManager lm{{/*randomized=*/false, /*lazy=*/true},
                 util::Rng{1}, kObjects};
  const Sizes sizes;  // l(o) = 1000
  const ObjectId o{0};
  std::int64_t proposals = 0;
  for (int i = 1; i <= 20; ++i) {
    proposals += propose(lm, query_costing(250), {o}, sizes.size_fn(),
                         sizes.cost_fn());
    // 250 bytes per query against l=1000: a proposal exactly at every
    // 4th query, i.e. exactly once per 1000 attributed bytes.
    EXPECT_EQ(proposals, i / 4) << "after query " << i;
  }
  EXPECT_EQ(proposals, 5);
}

TEST(LoadManagerTest, CounterModeAttributionIsCappedByQueryCost) {
  LoadManager lm{{/*randomized=*/false, /*lazy=*/true},
                 util::Rng{1}, kObjects};
  const Sizes sizes;
  // One query shipping more than 2*l(o) still proposes the object once:
  // attribution per query is capped at l(o) (share = min(budget, l)).
  EXPECT_EQ(propose(lm, query_costing(5000), {ObjectId{0}}, sizes.size_fn(),
                    sizes.cost_fn()),
            1);
}

TEST(LoadManagerTest, BudgetWalksAcrossMissingObjects) {
  LoadManager lm{{/*randomized=*/false, /*lazy=*/true},
                 util::Rng{1}, kObjects};
  const Sizes sizes;
  // Cost 1000 over two missing objects of l=1000 each: the walk funds the
  // first object in (shuffled) order fully; the second accrues nothing
  // (budget exhausted). Exactly one proposal either way.
  EXPECT_EQ(propose(lm, query_costing(1000), {ObjectId{0}, ObjectId{1}},
                    sizes.size_fn(), sizes.cost_fn()),
            1);
  // A second identical query funds the other object to its threshold too.
  EXPECT_EQ(propose(lm, query_costing(1000), {ObjectId{0}, ObjectId{1}},
                    sizes.size_fn(), sizes.cost_fn()),
            1);
}

// Randomized mode matches the counter rule in expectation: over a long
// seeded run the proposal count concentrates around demand / l(o).
TEST(LoadManagerTest, RandomizedModeMatchesCounterModeInExpectation) {
  const Sizes sizes;  // l(o) = 1000
  const ObjectId o{0};
  const int kQueries = 5000;
  const std::int64_t kCost = 100;  // propose w.p. 0.1 per query

  LoadManager exact{{/*randomized=*/false, /*lazy=*/true},
                    util::Rng{7}, kObjects};
  LoadManager randomized{{/*randomized=*/true, /*lazy=*/true},
                         util::Rng{7}, kObjects};
  std::int64_t exact_count = 0;
  std::int64_t randomized_count = 0;
  for (int i = 0; i < kQueries; ++i) {
    exact_count += propose(exact, query_costing(kCost), {o}, sizes.size_fn(),
                           sizes.cost_fn());
    randomized_count += propose(randomized, query_costing(kCost), {o},
                                sizes.size_fn(), sizes.cost_fn());
  }
  // The exact rule: 5000 queries * 100 B / 1000 B = 500 proposals.
  EXPECT_EQ(exact_count, kQueries * kCost / 1000);
  // Binomial(5000, 0.1): mean 500, sd ~21. A 20% band is ~4.7 sd — tight
  // enough to catch a wrong probability, loose enough to never flake on
  // this fixed seed.
  EXPECT_NEAR(static_cast<double>(randomized_count),
              static_cast<double>(exact_count), 0.2 * exact_count);
}

TEST(LoadManagerTest, ForgetDropsTheCounter) {
  LoadManager lm{{/*randomized=*/false, /*lazy=*/true},
                 util::Rng{1}, kObjects};
  const Sizes sizes;
  const ObjectId o{0};
  const auto feed = [&] {
    return propose(lm, query_costing(400), {o}, sizes.size_fn(),
                   sizes.cost_fn());
  };
  EXPECT_EQ(feed(), 0);  // 400
  EXPECT_EQ(feed(), 0);  // 800
  lm.forget(o);          // load or eviction resets the shipped-cost memory
  EXPECT_EQ(feed(), 0);  // 400 again — without forget() this would propose
  EXPECT_EQ(feed(), 0);  // 800
  EXPECT_EQ(feed(), 1);  // 1200: the rule re-arms from zero
}

TEST(LoadManagerTest, SiblingCandidatesArriveAsOneBatch) {
  const Sizes sizes;
  // A query rich enough to fund both missing objects at once: consider()
  // proposes them together, and the lazy/eager option (how the caller then
  // slices the batch for the eviction policy) is carried in options().
  const workload::Query q = query_costing(2000);

  LoadManager lazy{{/*randomized=*/false, /*lazy=*/true},

                   util::Rng{3}, kObjects};
  std::vector<ObjectId> missing{ObjectId{0}, ObjectId{1}};
  const auto& candidates =
      lazy.consider(q, missing, sizes.size_fn(), sizes.cost_fn());
  EXPECT_EQ(candidates.size(), 2u);  // siblings decided together
  EXPECT_TRUE(lazy.options().lazy);

  LoadManager eager{{/*randomized=*/false, /*lazy=*/false},

                    util::Rng{3}, kObjects};
  std::vector<ObjectId> missing2{ObjectId{0}, ObjectId{1}};
  const auto& eager_candidates =
      eager.consider(q, missing2, sizes.size_fn(), sizes.cost_fn());
  EXPECT_EQ(eager_candidates.size(), 2u);
  EXPECT_FALSE(eager.options().lazy);  // caller applies one-element batches
}

TEST(LoadManagerTest, ConsiderReusesItsScratchAcrossCalls) {
  LoadManager lm{{/*randomized=*/false, /*lazy=*/true},
                 util::Rng{1}, kObjects};
  const Sizes sizes;
  std::vector<ObjectId> missing{ObjectId{0}};
  const auto& first =
      lm.consider(query_costing(5000), missing, sizes.size_fn(),
                  sizes.cost_fn());
  ASSERT_EQ(first.size(), 1u);
  // The same reference is refilled by the next call (documented contract).
  std::vector<ObjectId> missing2{ObjectId{1}};
  const auto& second =
      lm.consider(query_costing(5000), missing2, sizes.size_fn(),
                  sizes.cost_fn());
  EXPECT_EQ(&first, &second);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].id, ObjectId{1});
}

TEST(LoadManagerTest, CandidatesCarrySizeAndLoadCost) {
  LoadManager lm{{/*randomized=*/false, /*lazy=*/true},
                 util::Rng{1}, kObjects};
  std::vector<ObjectId> missing{ObjectId{42}};
  const auto& candidates = lm.consider(
      query_costing(5000), missing,
      [](ObjectId) { return Bytes{1234}; },
      [](ObjectId) { return Bytes{1234 + 766}; });
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].id, ObjectId{42});
  EXPECT_EQ(candidates[0].size.count(), 1234);
  EXPECT_EQ(candidates[0].load_cost.count(), 1234 + 766);
}

}  // namespace
}  // namespace delta::core
