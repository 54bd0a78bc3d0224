// util::FlatMap: insert-only open-addressing semantics (try_emplace/find,
// growth), move-only values, and differential equivalence against
// std::unordered_map.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "util/flat_map.h"
#include "util/rng.h"
#include "util/types.h"

namespace delta::util {
namespace {

TEST(FlatMapTest, InsertFind) {
  FlatMap<std::int32_t, int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(7), nullptr);

  auto [v, inserted] = map.try_emplace(7, 70);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 70);
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.find(7), nullptr);
  EXPECT_EQ(*map.find(7), 70);

  auto [v2, inserted2] = map.try_emplace(7, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, 70);  // try_emplace does not overwrite
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMapTest, GrowsPastInitialCapacityAndKeepsEntries) {
  FlatMap<std::int64_t, std::int64_t> map;
  for (std::int64_t i = 0; i < 10'000; ++i) map.try_emplace(i, i * 3);
  EXPECT_EQ(map.size(), 10'000u);
  for (std::int64_t i = 0; i < 10'000; ++i) {
    ASSERT_NE(map.find(i), nullptr) << i;
    EXPECT_EQ(*map.find(i), i * 3);
  }
}

TEST(FlatMapTest, MoveOnlyValues) {
  // Growth from the 16-slot minimum must move the unique_ptrs, not copy.
  FlatMap<std::int32_t, std::unique_ptr<int>> map;
  for (int i = 0; i < 100; ++i) {
    map.try_emplace(i, std::make_unique<int>(i));
  }
  EXPECT_EQ(map.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_NE(map.find(i), nullptr) << i;
    EXPECT_EQ(**map.find(i), i);
  }
}

// Random inserts over a small key range (long probe chains) interleaved
// with lookups: the table answers exactly like std::unordered_map.
TEST(FlatMapTest, DifferentialAgainstUnorderedMap) {
  util::Rng rng{20260730};
  FlatMap<std::int64_t, std::int64_t> flat;
  std::unordered_map<std::int64_t, std::int64_t> ref;
  for (int step = 0; step < 50'000; ++step) {
    const std::int64_t key = rng.uniform_int(0, 4000);
    if (rng.next_double() < 0.3) {
      const std::int64_t value = rng.uniform_int(0, 1'000'000);
      const bool inserted = flat.try_emplace(key, value).second;
      EXPECT_EQ(inserted, ref.try_emplace(key, value).second)
          << "step " << step;
    } else {
      const auto it = ref.find(key);
      const std::int64_t* found = flat.find(key);
      if (it == ref.end()) {
        EXPECT_EQ(found, nullptr) << "step " << step;
      } else {
        ASSERT_NE(found, nullptr) << "step " << step;
        EXPECT_EQ(*found, it->second) << "step " << step;
      }
    }
    ASSERT_EQ(flat.size(), ref.size()) << "step " << step;
  }
}

TEST(FlatMapTest, StrongIdKeys) {
  FlatMap<ObjectId, Bytes> map;
  map.try_emplace(ObjectId{42}, Bytes{1024});
  map.try_emplace(ObjectId{0}, Bytes{1});
  EXPECT_EQ(map.find(ObjectId{42})->count(), 1024);
  EXPECT_EQ(map.find(ObjectId{0})->count(), 1);
  EXPECT_EQ(map.find(ObjectId{7}), nullptr);
}

// A million keys through the growth path (the table doubles its way up),
// then every key resolves and none past the range does.
TEST(FlatMapTest, MillionKeyGrowth) {
  constexpr std::int64_t kKeys = 1'000'000;
  FlatMap<std::uint64_t, std::int64_t> map;
  for (std::int64_t k = 0; k < kKeys; ++k) {
    map.try_emplace(static_cast<std::uint64_t>(k) << 20, k);
  }
  ASSERT_EQ(map.size(), static_cast<std::size_t>(kKeys));
  for (std::int64_t k = 0; k < kKeys; ++k) {
    const std::int64_t* v = map.find(static_cast<std::uint64_t>(k) << 20);
    ASSERT_NE(v, nullptr) << k;
    ASSERT_EQ(*v, k);
  }
  EXPECT_EQ(map.find(static_cast<std::uint64_t>(kKeys) << 20), nullptr);
}

}  // namespace
}  // namespace delta::util
