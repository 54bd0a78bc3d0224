// util::HeapMap: indexed-heap semantics (push/update/erase/pop, tie-broken
// (priority, key) ordering) and differential equivalence against a brute
// force arg-min scan under random churn — the property the eviction
// policies rely on for byte-identical victim selection.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
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

TEST(HeapMapTest, FindUpdateErase) {
  HeapMap<ObjectId, std::int64_t> heap{kKeys};
  heap.push(ObjectId{10}, 5);
  heap.push(ObjectId{20}, 6);
  ASSERT_NE(heap.find(ObjectId{10}), nullptr);
  EXPECT_EQ(*heap.find(ObjectId{10}), 5);
  EXPECT_EQ(heap.find(ObjectId{99}), nullptr);

  heap.update(ObjectId{10}, 7);  // demote: 20 becomes the minimum
  EXPECT_EQ(heap.top().key, ObjectId{20});
  heap.update(ObjectId{10}, 1);  // promote back
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
  EXPECT_THROW(heap.update(ObjectId{2}, 2.0), std::logic_error);
}

TEST(HeapMapTest, OutOfRangeKeysAreAbsentAndRejected) {
  HeapMap<ObjectId, double> heap{kKeys};
  const ObjectId past_end{static_cast<std::int64_t>(kKeys)};
  EXPECT_FALSE(heap.contains(past_end));
  EXPECT_FALSE(heap.contains(ObjectId::invalid()));
  EXPECT_EQ(heap.find(past_end), nullptr);
  EXPECT_THROW(heap.push(past_end, 1.0), std::logic_error);
  EXPECT_THROW(heap.update(past_end, 1.0), std::logic_error);
  EXPECT_THROW((void)heap.erase(past_end), std::logic_error);
  EXPECT_TRUE(heap.empty());
}

// Differential churn: the heap's top must always equal the brute-force
// tie-broken arg-min over a mirrored std::map, across a long random mix of
// push / update / erase / pop.
TEST(HeapMapTest, DifferentialArgMinUnderChurn) {
  HeapMap<ObjectId, double> heap{kKeys};
  std::map<std::int64_t, double> mirror;
  Rng rng{0xC0FFEE};

  const auto brute_min = [&]() -> std::int64_t {
    std::int64_t best = -1;
    double best_priority = 0.0;
    for (const auto& [id, priority] : mirror) {
      if (best < 0 || priority < best_priority ||
          (priority == best_priority && id < best)) {
        best = id;
        best_priority = priority;
      }
    }
    return best;
  };

  for (int step = 0; step < 20000; ++step) {
    const std::int64_t id = rng.uniform_int(0, 199);
    // Coarse priorities force frequent ties so the id tie-break is hot.
    const double priority = static_cast<double>(rng.uniform_int(0, 9));
    const int op = static_cast<int>(rng.uniform_int(0, 3));
    const bool present = mirror.count(id) > 0;
    if (op == 0) {
      if (!present) {
        heap.push(ObjectId{id}, priority);
        mirror[id] = priority;
      }
    } else if (op == 1) {
      if (present) {
        heap.update(ObjectId{id}, priority);
        mirror[id] = priority;
      }
    } else if (op == 2) {
      EXPECT_EQ(heap.erase(ObjectId{id}), present);
      mirror.erase(id);
    } else if (!mirror.empty()) {
      const std::int64_t expect = brute_min();
      EXPECT_EQ(heap.top().key.value(), expect);
      heap.pop();
      mirror.erase(expect);
    }
    ASSERT_EQ(heap.size(), mirror.size());
    if (!mirror.empty()) {
      ASSERT_EQ(heap.top().key.value(), brute_min());
    }
  }
}

}  // namespace
}  // namespace delta::util
