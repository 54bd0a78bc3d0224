// util::HeapMap: indexed-heap semantics (push/raise/erase/pop,
// tie-broken (priority, key) ordering) and differential equivalence against
// a brute force arg-min scan under random churn — the property the eviction
// policies rely on for byte-identical victim selection. raise() leaves a
// stale heap key behind that top() and pop() re-key, so the differential
// suite mixes raises with every other operation and checks the live
// priorities find() and top() report.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "util/heap_map.h"
#include "util/rng.h"
#include "util/types.h"

namespace delta::util {
namespace {

constexpr std::size_t kKeys = 200;  // ids the tests may name

TEST(HeapMapTest, PushTopPopOrdersByPriorityThenKey) {
  HeapMap<ObjectId, double> heap{kKeys};
  EXPECT_TRUE(heap.empty());
  heap.push(ObjectId{3}, 2.0);
  heap.push(ObjectId{1}, 2.0);  // same priority: lower id wins
  heap.push(ObjectId{2}, 1.0);
  EXPECT_EQ(heap.size(), 3u);

  EXPECT_EQ(heap.top().key, ObjectId{2});
  heap.pop();
  EXPECT_EQ(heap.top().key, ObjectId{1});
  heap.pop();
  EXPECT_EQ(heap.top().key, ObjectId{3});
  heap.pop();
  EXPECT_TRUE(heap.empty());
}

TEST(HeapMapTest, FindRaiseErase) {
  HeapMap<ObjectId, std::int64_t> heap{kKeys};
  heap.push(ObjectId{10}, 5);
  heap.push(ObjectId{20}, 6);
  ASSERT_NE(heap.find(ObjectId{10}), nullptr);
  EXPECT_EQ(*heap.find(ObjectId{10}), 5);
  EXPECT_EQ(heap.find(ObjectId{99}), nullptr);

  heap.raise(ObjectId{10}, 7);  // demote: 20 becomes the minimum
  EXPECT_EQ(heap.top().key, ObjectId{20});
  ASSERT_TRUE(heap.erase(ObjectId{10}));  // a lower priority is a re-push
  heap.push(ObjectId{10}, 1);
  EXPECT_EQ(heap.top().key, ObjectId{10});

  EXPECT_TRUE(heap.erase(ObjectId{10}));
  EXPECT_FALSE(heap.erase(ObjectId{10}));
  EXPECT_FALSE(heap.contains(ObjectId{10}));
  EXPECT_EQ(heap.top().key, ObjectId{20});
}

TEST(HeapMapTest, PushPresentKeyThrows) {
  HeapMap<ObjectId, double> heap{kKeys};
  heap.push(ObjectId{1}, 1.0);
  EXPECT_THROW(heap.push(ObjectId{1}, 2.0), std::logic_error);
  EXPECT_THROW(heap.raise(ObjectId{2}, 2.0), std::logic_error);
}

TEST(HeapMapTest, OutOfRangeKeysAreAbsentAndRejected) {
  HeapMap<ObjectId, double> heap{kKeys};
  const ObjectId past_end{static_cast<std::int64_t>(kKeys)};
  EXPECT_FALSE(heap.contains(past_end));
  EXPECT_FALSE(heap.contains(ObjectId::invalid()));
  EXPECT_EQ(heap.find(past_end), nullptr);
  EXPECT_THROW(heap.push(past_end, 1.0), std::logic_error);
  EXPECT_THROW(heap.raise(past_end, 1.0), std::logic_error);
  EXPECT_THROW((void)heap.erase(past_end), std::logic_error);
  EXPECT_TRUE(heap.empty());
}

// raise() stores the live priority at once; the top re-keys when read.
TEST(HeapMapTest, RaiseIsSeenByFindAndSettlesAtTheTop) {
  HeapMap<ObjectId, std::int64_t> heap{kKeys};
  heap.push(ObjectId{1}, 1);
  heap.push(ObjectId{2}, 2);
  heap.push(ObjectId{3}, 3);
  heap.raise(ObjectId{1}, 5);  // 1 is still the heap's root, stale
  EXPECT_EQ(*heap.find(ObjectId{1}), 5);
  EXPECT_EQ(heap.top().key, ObjectId{2});
  EXPECT_EQ(heap.top().priority, 2);
  heap.raise(ObjectId{2}, 3);  // 2 ties 3 at priority 3: the lower key wins
  EXPECT_EQ(heap.top().key, ObjectId{2});
  heap.pop();
  EXPECT_EQ(heap.top().key, ObjectId{3});
  heap.raise(ObjectId{3}, 5);  // 3 ties 1 (re-keyed to 5): 1 wins
  EXPECT_EQ(heap.top().key, ObjectId{1});
  EXPECT_EQ(heap.top().priority, 5);
  heap.pop();
  EXPECT_EQ(heap.top().key, ObjectId{3});
  heap.pop();
  EXPECT_TRUE(heap.empty());
  EXPECT_THROW(heap.raise(ObjectId{3}, 9), std::logic_error);
}

// DELTA_DCHECK compiles away under NDEBUG, so the rule is only enforced
// (and this test only built) in Debug builds.
#ifndef NDEBUG
TEST(HeapMapTest, RaiseToALowerPriorityTripsTheDcheck) {
  HeapMap<ObjectId, double> heap{kKeys};
  heap.push(ObjectId{4}, 2.0);
  heap.raise(ObjectId{4}, 2.0);  // an equal priority is a raise
  EXPECT_THROW(heap.raise(ObjectId{4}, 1.5), std::logic_error);
  EXPECT_EQ(*heap.find(ObjectId{4}), 2.0);
}
#endif

/// A priority ordered by `credit` alone that carries a payload along, as
/// the Greedy-Dual-Size credit carries its cost ratio: equal credits with
/// different tags tie, and the tag shows which raise or push the heap
/// reports.
struct Tagged {
  std::int64_t credit = 0;
  std::int64_t tag = 0;
  friend bool operator<(const Tagged& a, const Tagged& b) {
    return a.credit < b.credit;
  }
  friend bool operator==(const Tagged&, const Tagged&) = default;
};

// Differential churn against a brute-force model of the live priorities:
// seeded random mixes of push, raise (often by zero, so live priorities
// tie the heap keys they leave behind), re-push at any credit (erase then
// push), erase, pop, top and find over a few dozen keys and a handful of
// credits. After every
// operation top() is the (live credit, key) arg-min with its live
// priority, and find() reports every key's live priority or absence.
TEST(HeapMapTest, DifferentialArgMinUnderChurn) {
  constexpr std::int64_t kIds = 40;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    HeapMap<ObjectId, Tagged> heap{static_cast<std::size_t>(kIds)};
    std::map<std::int64_t, Tagged> model;
    Rng rng{seed};
    std::int64_t tag = 0;

    const auto brute_min = [&] {
      auto best = model.begin();
      for (auto it = model.begin(); it != model.end(); ++it) {
        if (it->second.credit < best->second.credit) best = it;
      }
      return best;  // std::map walks ids upward: the first minimum wins
    };

    for (int step = 0; step < 6000; ++step) {
      const std::int64_t id = rng.uniform_int(0, kIds - 1);
      const auto it = model.find(id);
      const bool present = it != model.end();
      const int op = static_cast<int>(rng.uniform_int(0, 9));
      if (op <= 1) {
        const Tagged p{rng.uniform_int(0, 6), ++tag};
        if (present) {
          EXPECT_THROW(heap.push(ObjectId{id}, p), std::logic_error);
        } else {
          heap.push(ObjectId{id}, p);
          model[id] = p;
        }
      } else if (op <= 4) {
        if (present) {
          const Tagged p{it->second.credit + rng.uniform_int(0, 2), ++tag};
          heap.raise(ObjectId{id}, p);
          it->second = p;
        }
      } else if (op == 5) {
        if (present) {
          const Tagged p{rng.uniform_int(0, 8), ++tag};
          ASSERT_TRUE(heap.erase(ObjectId{id}));
          heap.push(ObjectId{id}, p);
          it->second = p;
        }
      } else if (op == 6) {
        EXPECT_EQ(heap.erase(ObjectId{id}), present);
        model.erase(id);
      } else if (op == 7) {
        if (!model.empty()) {
          const auto expect = brute_min();
          ASSERT_EQ(heap.top().key.value(), expect->first);
          heap.pop();
          model.erase(expect);
        }
      } else {
        const Tagged* found = heap.find(ObjectId{id});
        ASSERT_EQ(found != nullptr, present);
        if (present) {
          EXPECT_EQ(*found, it->second);
        }
      }

      ASSERT_EQ(heap.size(), model.size());
      if (!model.empty()) {
        const auto expect = brute_min();
        const auto& top = heap.top();
        ASSERT_EQ(top.key.value(), expect->first);
        ASSERT_EQ(top.priority, expect->second);
      }
      if (step % 97 == 0) {
        for (std::int64_t k = 0; k < kIds; ++k) {
          const Tagged* found = heap.find(ObjectId{k});
          const auto m = model.find(k);
          ASSERT_EQ(found != nullptr, m != model.end()) << "key " << k;
          if (found != nullptr) {
            ASSERT_EQ(*found, m->second) << "key " << k;
          }
        }
      }
    }
    // Drain: pops come out in (live credit, key) order.
    while (!model.empty()) {
      const auto expect = brute_min();
      ASSERT_EQ(heap.top().key.value(), expect->first);
      ASSERT_EQ(heap.top().priority, expect->second);
      heap.pop();
      model.erase(expect);
    }
    EXPECT_TRUE(heap.empty());
  }
}

}  // namespace
}  // namespace delta::util
