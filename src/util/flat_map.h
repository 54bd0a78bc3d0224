// Insert-only open-addressing hash map for sparse integer keys.
//
// Dense ids (ObjectId, solver node indices) index plain vectors instead;
// FlatMap is for keys that are not dense — the trace splitter's 64-bit
// anchor keys (workload/trace_split.cpp). node-based std::unordered_map
// pays a heap allocation per insert and a pointer chase per find; FlatMap
// keeps keys and values in flat arrays (struct-of-arrays, so probing
// touches only the key lane) and probes linearly over a power-of-two table.
//
// Contract:
//  * Key is an integral type or a strong id exposing `.value()` (see
//    util/types.h); hashing is a fixed Fibonacci mix of that raw value, so
//    slot order is deterministic across platforms and standard libraries.
//  * Value must be default-constructible and movable (moved on growth).
//  * Entries are never erased.
//  * Pointers returned by find()/try_emplace() are invalidated by any
//    insert (the table may grow).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.h"

namespace delta::util {

namespace detail {

template <typename Key>
[[nodiscard]] constexpr std::uint64_t flat_raw_key(Key key) {
  if constexpr (std::is_integral_v<Key>) {
    return static_cast<std::uint64_t>(key);
  } else {
    return static_cast<std::uint64_t>(key.value());
  }
}

}  // namespace detail

template <typename Key, typename Value>
class FlatMap {
 public:
  FlatMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// The key's value, or nullptr when absent.
  [[nodiscard]] const Value* find(Key key) const {
    if (size_ == 0) return nullptr;
    std::size_t i = home(key);
    while (used_[i]) {
      if (keys_[i] == key) return &values_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  /// Inserts `Value{args...}` if absent; returns (value pointer, inserted).
  template <typename... Args>
  std::pair<Value*, bool> try_emplace(Key key, Args&&... args) {
    if ((size_ + 1) * 4 > keys_.size() * 3) rehash(keys_.size() * 2);
    std::size_t i = home(key);
    while (used_[i]) {
      if (keys_[i] == key) return {&values_[i], false};
      i = (i + 1) & mask_;
    }
    used_[i] = 1;
    keys_[i] = key;
    values_[i] = Value{std::forward<Args>(args)...};
    ++size_;
    return {&values_[i], true};
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;
  // Fibonacci multiplicative hashing: a fixed odd multiplier spreads
  // consecutive ids across the table while staying allocation- and
  // platform-independent.
  static constexpr std::uint64_t kMix = 0x9E3779B97F4A7C15ULL;

  std::vector<Key> keys_;
  std::vector<Value> values_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 64;

  [[nodiscard]] std::size_t home(Key key) const {
    return static_cast<std::size_t>(
        (detail::flat_raw_key(key) * kMix) >> shift_);
  }

  void rehash(std::size_t new_capacity) {
    if (new_capacity < kMinCapacity) new_capacity = kMinCapacity;
    DELTA_DCHECK((new_capacity & (new_capacity - 1)) == 0);
    std::vector<Key> old_keys = std::move(keys_);
    std::vector<Value> old_values = std::move(values_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    keys_.assign(new_capacity, Key{});
    values_.clear();
    values_.resize(new_capacity);
    used_.assign(new_capacity, 0);
    mask_ = new_capacity - 1;
    shift_ = 64;
    for (std::size_t c = new_capacity; c > 1; c >>= 1) --shift_;
    for (std::size_t i = 0; i < old_used.size(); ++i) {
      if (!old_used[i]) continue;
      std::size_t j = home(old_keys[i]);
      while (used_[j]) j = (j + 1) & mask_;
      used_[j] = 1;
      keys_[j] = old_keys[i];
      values_[j] = std::move(old_values[i]);
    }
  }
};

}  // namespace delta::util
