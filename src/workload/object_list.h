// B(q) storage: the sorted object ids one query accesses.
//
// Most queries name one object (every synthetic point read, a third of
// the astronomy trace), so the list keeps its first id inside the query
// record and moves to the heap only when a second one arrives. A trace
// of n single-object queries therefore makes no per-query allocation and
// the replay reads the id from the record itself. The interface is the
// subset of std::vector<ObjectId> the trace layer uses; iterators are raw
// pointers, so std::sort / std::unique / std::adjacent_find apply.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/check.h"
#include "util/types.h"

namespace delta::workload {

class ObjectList {
 public:
  using value_type = ObjectId;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using reference = ObjectId&;
  using const_reference = const ObjectId&;
  using pointer = ObjectId*;
  using const_pointer = const ObjectId*;
  using iterator = ObjectId*;
  using const_iterator = const ObjectId*;

  ObjectList() noexcept : inline_{} {}
  ObjectList(const ObjectList& other) : inline_{} {
    assign(other.begin(), other.end());
  }
  ObjectList(ObjectList&& other) noexcept : inline_{} { steal(other); }
  ObjectList& operator=(const ObjectList& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  ObjectList& operator=(ObjectList&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~ObjectList() { release(); }

  [[nodiscard]] ObjectId* data() noexcept {
    return on_heap() ? heap_ : &inline_;
  }
  [[nodiscard]] const ObjectId* data() const noexcept {
    return on_heap() ? heap_ : &inline_;
  }
  [[nodiscard]] iterator begin() noexcept { return data(); }
  [[nodiscard]] iterator end() noexcept { return data() + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data(); }
  [[nodiscard]] const_iterator end() const noexcept { return data() + size_; }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] ObjectId& operator[](std::size_t i) noexcept {
    return data()[i];
  }
  [[nodiscard]] const ObjectId& operator[](std::size_t i) const noexcept {
    return data()[i];
  }
  [[nodiscard]] ObjectId& front() noexcept { return data()[0]; }
  [[nodiscard]] const ObjectId& front() const noexcept { return data()[0]; }
  [[nodiscard]] ObjectId& back() noexcept { return data()[size_ - 1]; }
  [[nodiscard]] const ObjectId& back() const noexcept {
    return data()[size_ - 1];
  }

  void push_back(ObjectId id) {
    if (size_ == capacity_) reallocate(std::size_t{capacity_} * 2);
    std::construct_at(data() + size_, id);
    ++size_;
  }

  /// Replaces the contents with [first, last), allocating exactly once
  /// when they do not fit the current capacity.
  void assign(const ObjectId* first, const ObjectId* last) {
    const auto n = static_cast<std::size_t>(last - first);
    size_ = 0;
    if (n > capacity_) reallocate(n);
    std::uninitialized_copy(first, last, data());
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Keeps the capacity, like std::vector::clear.
  void clear() noexcept { size_ = 0; }

  /// Removes [first, last) and returns the position after the removed
  /// range (the new position of `last`'s element).
  iterator erase(const_iterator first, const_iterator last) noexcept {
    ObjectId* const base = data();
    ObjectId* const out = base + (first - base);
    std::copy(base + (last - base), end(), out);
    size_ -= static_cast<std::uint32_t>(last - first);
    return out;
  }

  friend bool operator==(const ObjectList& a, const ObjectList& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  static constexpr std::uint32_t kInlineCapacity = 1;

  [[nodiscard]] bool on_heap() const noexcept {
    return capacity_ > kInlineCapacity;
  }

  /// Moves the contents to a heap block of `n` ids.
  void reallocate(std::size_t n) {
    DELTA_CHECK_MSG(n <= UINT32_MAX, "object list of " << n << " ids");
    ObjectId* const block = std::allocator<ObjectId>{}.allocate(n);
    std::uninitialized_copy(begin(), end(), block);
    release();
    heap_ = block;
    capacity_ = static_cast<std::uint32_t>(n);
  }

  /// Frees the heap block, if any, and leaves the storage inline (the
  /// size is the caller's to set).
  void release() noexcept {
    if (on_heap()) {
      std::allocator<ObjectId>{}.deallocate(heap_, capacity_);
      inline_ = ObjectId{};
      capacity_ = kInlineCapacity;
    }
  }

  /// Takes `other`'s contents (its block, or its inline id) and leaves it
  /// empty and inline. Expects this list to be inline.
  void steal(ObjectList& other) noexcept {
    if (other.on_heap()) {
      heap_ = other.heap_;
      other.inline_ = ObjectId{};
    } else {
      inline_ = other.inline_;
    }
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.size_ = 0;
    other.capacity_ = kInlineCapacity;
  }

  union {
    ObjectId inline_;
    ObjectId* heap_;
  };
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInlineCapacity;
};

static_assert(sizeof(ObjectList) == 16);

}  // namespace delta::workload
