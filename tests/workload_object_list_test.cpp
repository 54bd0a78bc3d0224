// Trace records: workload::ObjectList (B(q) with one inline id) against a
// std::vector<ObjectId> reference across the inline→heap boundary, copy
// and move semantics including self-assignment, the sort + unique + erase
// idiom through its raw-pointer iterators, and workload::Event's checked
// constructors at the int32 index bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "workload/events.h"
#include "workload/object_list.h"

namespace delta::workload {
namespace {

ObjectList list_of(const std::vector<std::int64_t>& ids) {
  ObjectList list;
  for (const std::int64_t id : ids) list.push_back(ObjectId{id});
  return list;
}

std::vector<ObjectId> as_vector(const ObjectList& list) {
  return {list.begin(), list.end()};
}

/// Whether the list's storage is its own inline slot.
bool is_inline(const ObjectList& list) {
  const auto* self = reinterpret_cast<const char*>(&list);
  const auto* data = reinterpret_cast<const char*>(list.data());
  return data >= self && data < self + sizeof(list);
}

TEST(ObjectListTest, EmptyListIsInline) {
  const ObjectList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.begin(), list.end());
  EXPECT_TRUE(is_inline(list));
}

TEST(ObjectListTest, GrowsAcrossTheInlineBoundaryLikeAVector) {
  ObjectList list;
  std::vector<ObjectId> reference;
  for (std::int64_t i = 0; i < 40; ++i) {
    list.push_back(ObjectId{100 - i});
    reference.push_back(ObjectId{100 - i});
    ASSERT_EQ(list.size(), reference.size());
    EXPECT_EQ(is_inline(list), i == 0);
    EXPECT_EQ(as_vector(list), reference) << "after " << i + 1;
    EXPECT_EQ(list.front(), reference.front());
    EXPECT_EQ(list.back(), reference.back());
    EXPECT_EQ(list[static_cast<std::size_t>(i)], reference.back());
    EXPECT_EQ(list.data(), &list[0]);
  }
}

TEST(ObjectListTest, MutableIterationWritesThrough) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}}) {
    ObjectList list;
    for (std::size_t i = 0; i < n; ++i) {
      list.push_back(ObjectId{static_cast<std::int64_t>(i)});
    }
    for (ObjectId& o : list) o = ObjectId{o.value() * 3};
    list[0] = ObjectId{-7};
    std::vector<ObjectId> expected{ObjectId{-7}};
    for (std::size_t i = 1; i < n; ++i) {
      expected.push_back(ObjectId{static_cast<std::int64_t>(i) * 3});
    }
    EXPECT_EQ(as_vector(list), expected);
  }
}

TEST(ObjectListTest, SortUniqueEraseThroughIterators) {
  util::Rng rng{0x0B1EC7};
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 12));
    ObjectList list;
    std::vector<ObjectId> reference;
    for (std::size_t i = 0; i < n; ++i) {
      const ObjectId o{rng.uniform_int(0, 5)};
      list.push_back(o);
      reference.push_back(o);
    }
    std::sort(list.begin(), list.end());
    const auto tail = list.erase(std::unique(list.begin(), list.end()),
                                 list.end());
    std::sort(reference.begin(), reference.end());
    reference.erase(std::unique(reference.begin(), reference.end()),
                    reference.end());
    EXPECT_EQ(tail, list.end());
    EXPECT_EQ(as_vector(list), reference) << "trial " << trial;
  }
}

TEST(ObjectListTest, EraseFromTheMiddleShiftsTheTail) {
  ObjectList list = list_of({1, 2, 3, 4, 5});
  const auto next = list.erase(list.begin() + 1, list.begin() + 3);
  EXPECT_EQ(*next, ObjectId{4});
  EXPECT_EQ(list, list_of({1, 4, 5}));
  list.erase(list.begin(), list.end());
  EXPECT_TRUE(list.empty());
  list.push_back(ObjectId{9});  // capacity is kept, like std::vector
  EXPECT_EQ(list, list_of({9}));
}

TEST(ObjectListTest, ClearAndAssignReuseTheHeapBlock) {
  ObjectList list = list_of({1, 2, 3});
  const ObjectId* const block = list.data();
  list.clear();
  EXPECT_TRUE(list.empty());
  const std::vector<ObjectId> ids{ObjectId{7}, ObjectId{8}};
  list.assign(ids.data(), ids.data() + ids.size());
  EXPECT_EQ(list.data(), block);
  EXPECT_EQ(as_vector(list), ids);

  ObjectList one;
  one.assign(ids.data(), ids.data() + 1);
  EXPECT_TRUE(is_inline(one));
  EXPECT_EQ(one, list_of({7}));
  const std::vector<ObjectId> five{ObjectId{1}, ObjectId{2}, ObjectId{3},
                                   ObjectId{4}, ObjectId{5}};
  one.assign(five.data(), five.data() + five.size());
  EXPECT_FALSE(is_inline(one));
  EXPECT_EQ(as_vector(one), five);
}

TEST(ObjectListTest, EqualityComparesContents) {
  EXPECT_EQ(ObjectList{}, ObjectList{});
  EXPECT_EQ(list_of({4}), list_of({4}));
  EXPECT_EQ(list_of({1, 2, 3}), list_of({1, 2, 3}));
  EXPECT_FALSE(list_of({4}) == list_of({5}));
  EXPECT_FALSE(list_of({1, 2}) == list_of({1, 2, 3}));
  EXPECT_FALSE(list_of({}) == list_of({0}));
  // Same contents, different capacity.
  ObjectList shrunk = list_of({1, 2, 3});
  shrunk.erase(shrunk.begin() + 1, shrunk.end());
  EXPECT_EQ(shrunk, list_of({1}));
}

TEST(ObjectListTest, CopyIsDeepAcrossBothLayouts) {
  for (const auto& ids : std::vector<std::vector<std::int64_t>>{
           {}, {3}, {1, 2}, {5, 6, 7, 8, 9}}) {
    const ObjectList source = list_of(ids);
    ObjectList copy{source};
    EXPECT_EQ(copy, source);
    if (!copy.empty()) {
      EXPECT_NE(copy.data(), source.data());
      copy.front() = ObjectId{-1};
      EXPECT_EQ(source, list_of(ids));
    }
    // Copy-assign over both a smaller and a larger list.
    ObjectList small = list_of({42});
    small = source;
    EXPECT_EQ(small, source);
    ObjectList large = list_of({1, 2, 3, 4, 5, 6, 7, 8});
    large = source;
    EXPECT_EQ(large, source);
  }
}

TEST(ObjectListTest, MoveLeavesTheSourceEmptyAndInline) {
  for (const auto& ids : std::vector<std::vector<std::int64_t>>{
           {}, {3}, {1, 2}, {5, 6, 7, 8, 9}}) {
    ObjectList source = list_of(ids);
    const ObjectId* heap_block = ids.size() > 1 ? source.data() : nullptr;
    ObjectList moved{std::move(source)};
    EXPECT_EQ(moved, list_of(ids));
    if (heap_block != nullptr) {
      EXPECT_EQ(moved.data(), heap_block);
    }
    EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(is_inline(source));
    source.push_back(ObjectId{11});  // a moved-from list is reusable
    EXPECT_EQ(source, list_of({11}));

    ObjectList target = list_of({20, 21, 22});
    target = std::move(moved);
    EXPECT_EQ(target, list_of(ids));
    EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
  }
}

TEST(ObjectListTest, SelfAssignmentKeepsContents) {
  for (const auto& ids : std::vector<std::vector<std::int64_t>>{
           {}, {3}, {1, 2, 3}}) {
    ObjectList list = list_of(ids);
    ObjectList& alias = list;
    list = alias;
    EXPECT_EQ(list, list_of(ids));
    list = std::move(alias);
    EXPECT_EQ(list, list_of(ids));
  }
}

TEST(ObjectListTest, QueryVectorGrowthMovesLists) {
  std::vector<Query> queries;
  for (std::int64_t i = 0; i < 100; ++i) {
    Query q;
    q.id = QueryId{i};
    for (std::int64_t k = 0; k <= i % 3; ++k) {
      q.objects.push_back(ObjectId{i + k});
    }
    queries.push_back(std::move(q));
  }
  for (std::int64_t i = 0; i < 100; ++i) {
    const Query& q = queries[static_cast<std::size_t>(i)];
    ASSERT_EQ(q.objects.size(), static_cast<std::size_t>(i % 3 + 1));
    for (std::size_t k = 0; k < q.objects.size(); ++k) {
      EXPECT_EQ(q.objects[k], ObjectId{i + static_cast<std::int64_t>(k)});
    }
  }
}

TEST(EventTest, CheckedConstructorsNameTheirRecord) {
  const Event q = Event::query(7);
  EXPECT_EQ(q.kind, Event::Kind::kQuery);
  EXPECT_EQ(q.index, 7);
  const Event u = Event::update(Event::kMaxIndex);
  EXPECT_EQ(u.kind, Event::Kind::kUpdate);
  EXPECT_EQ(u.index, Event::kMaxIndex);
}

TEST(EventTest, CheckedConstructorsRejectIndicesBeyondInt32) {
  EXPECT_THROW((void)Event::query(std::int64_t{1} << 31), std::logic_error);
  EXPECT_THROW((void)Event::update(std::int64_t{1} << 31), std::logic_error);
  EXPECT_THROW((void)Event::query(-1), std::logic_error);
  EXPECT_THROW((void)Event::update(-1), std::logic_error);
}

}  // namespace
}  // namespace delta::workload
