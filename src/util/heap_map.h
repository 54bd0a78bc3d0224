// Indexed binary min-heap over unique keys: the resident-set side index
// that makes eviction/shed victim selection O(log n) instead of a full
// resident sweep per decision (the million-object data-plane requirement:
// no O(n_objects) term on the replay hot path).
//
// Ordering is the lexicographic total order (priority, key) — exactly the
// tie-broken arg-min the eviction policies previously computed by scanning,
// so swapping the scan for top()/pop() changes no observable decision (the
// heap's internal array layout depends on operation history, but the
// minimum of a total order does not).
//
// A cache hit only ever raises a priority, so raise() is O(1): it stores
// the entry's new *live* priority and leaves its heap key where it was, as
// a lower bound of the live one. top() and pop() settle the top first:
// while the top's heap key is below its live priority, it is re-keyed to
// the live priority and sifted down. Every other entry's live priority is
// at least its heap key, which is at least the settled top's, so the
// settled top is still the exact (priority, key)-minimum of the live
// priorities, and victims are those an eager re-sort would pick. Each
// raise is re-keyed at most once, when its entry reaches the top.
//
// Contract:
//  * Key is a dense strong id (see util/types.h) below the key count given
//    at construction: each key's heap position lives in a plain vector
//    indexed by key.value(). Mutators DELTA_CHECK the range; contains() and
//    find() answer "absent" for an out-of-range key.
//  * Priority is totally ordered via operator< and copyable (double, int64).
//  * Keys are unique; push() requires absence, raise() presence; raise()
//    never lowers a priority (a DELTA_DCHECK). A caller that lowers one
//    erases the key and pushes it again.
//  * All operations are deterministic functions of the operation sequence.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/prefetch.h"

namespace delta::util {

template <typename Key, typename Priority>
class HeapMap {
 public:
  struct Entry {
    Key key{};
    Priority priority{};  // the live priority
  };

  /// Keys are ids in [0, key_count).
  explicit HeapMap(std::size_t key_count) : pos_(key_count, kAbsent) {}

  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  [[nodiscard]] bool contains(Key key) const {
    return position(key) != kAbsent;
  }

  /// Live priority of `key`, or nullptr when absent. Read-only: priorities
  /// change only through raise().
  [[nodiscard]] const Priority* find(Key key) const {
    const std::uint32_t i = position(key);
    return i == kAbsent ? nullptr : &heap_[i].priority;
  }

  /// Starts pulling `key`'s position row, which every keyed operation
  /// reads first. A hint only: an out-of-range key is ignored.
  void prefetch(Key key) const { prefetch_row(pos_, key.value()); }

  /// The (priority, key)-minimum entry, settled. Requires a non-empty heap.
  [[nodiscard]] const Entry& top() {
    DELTA_CHECK(!heap_.empty());
    settle();
    return heap_.front();
  }

  /// Inserts an absent key.
  void push(Key key, Priority priority) {
    std::uint32_t& slot = pos_[checked(key)];
    DELTA_CHECK_MSG(slot == kAbsent, "HeapMap::push of a present key");
    slot = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(Slot{{key, priority}, priority});
    sift_up(heap_.size() - 1);
  }

  /// Raises a present key's live priority in O(1); its heap key stays
  /// behind as a lower bound until the entry reaches the top.
  void raise(Key key, Priority priority) {
    const std::size_t i = pos_[checked(key)];
    DELTA_CHECK_MSG(i != kAbsent, "HeapMap::raise of an absent key");
    DELTA_DCHECK(!(priority < heap_[i].priority));
    heap_[i].priority = priority;
  }

  /// Removes the minimum entry. Requires a non-empty heap.
  void pop() {
    DELTA_CHECK(!heap_.empty());
    settle();
    remove_at(0);
  }

  /// Removes the key if present; returns true when erased.
  bool erase(Key key) {
    const std::uint32_t i = pos_[checked(key)];
    if (i == kAbsent) return false;
    remove_at(i);
    return true;
  }

 private:
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  /// A heap entry: the heap orders by (bound, key), where `bound` is the
  /// heap key, never above the live priority.
  struct Slot : Entry {
    Priority bound{};
  };

  std::vector<Slot> heap_;
  std::vector<std::uint32_t> pos_;  // heap index by key, kAbsent if none

  [[nodiscard]] std::size_t checked(Key key) const {
    const auto i = static_cast<std::size_t>(key.value());
    DELTA_CHECK_MSG(i < pos_.size(),
                    "HeapMap key " << key.value() << " out of range");
    return i;
  }

  [[nodiscard]] std::uint32_t position(Key key) const {
    const auto i = static_cast<std::size_t>(key.value());
    return i < pos_.size() ? pos_[i] : kAbsent;
  }

  [[nodiscard]] static bool less(const Slot& a, const Slot& b) {
    if (a.bound < b.bound) return true;
    if (b.bound < a.bound) return false;
    return a.key < b.key;
  }

  /// Re-keys the top to its live priority until the top is settled: its
  /// heap key equals its live priority.
  void settle() {
    while (heap_.front().bound < heap_.front().priority) {
      heap_.front().bound = heap_.front().priority;
      sift_down(0);
    }
    DELTA_DCHECK(!(heap_.front().priority < heap_.front().bound));
  }

  void place(std::size_t i, const Slot& e) {
    heap_[i] = e;
    pos_[static_cast<std::size_t>(e.key.value())] =
        static_cast<std::uint32_t>(i);
  }

  void sift_up(std::size_t i) {
    const Slot e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!less(e, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
  }

  void sift_down(std::size_t i) {
    const Slot e = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && less(heap_[child + 1], heap_[child])) ++child;
      if (!less(heap_[child], e)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, e);
  }

  void remove_at(std::size_t i) {
    DELTA_DCHECK(pos_[static_cast<std::size_t>(heap_[i].key.value())] == i);
    pos_[static_cast<std::size_t>(heap_[i].key.value())] = kAbsent;
    const Slot tail = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;  // removed the tail itself
    place(i, tail);
    sift_up(i);
    sift_down(i);
  }
};

}  // namespace delta::util
