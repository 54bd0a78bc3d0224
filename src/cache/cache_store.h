// The middleware cache's object store: which data objects are resident,
// their current sizes, staleness flags, and strict capacity accounting
// (invariant 2 of DESIGN.md §7: cached bytes never exceed capacity, except
// transiently through grow(), which the owning policy must rebalance).
#pragma once

#include <vector>

#include "util/prefetch.h"
#include "util/types.h"

namespace delta::cache {

class CacheStore {
 public:
  /// `id_count` is the repository's object count: the store keeps one row
  /// per object id in [0, id_count), resident or not.
  CacheStore(Bytes capacity, std::size_t id_count);

  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] Bytes used() const { return used_; }
  /// Number of resident objects.
  [[nodiscard]] std::size_t object_count() const { return resident_count_; }
  /// Number of object ids the store indexes (the constructor's id_count).
  [[nodiscard]] std::size_t id_count() const { return entries_.size(); }

  /// False for non-resident and for out-of-range ids alike.
  [[nodiscard]] bool contains(ObjectId id) const;
  [[nodiscard]] Bytes bytes_of(ObjectId id) const;
  /// Starts pulling the object's row into the CPU cache (a hint; an
  /// out-of-range id is ignored).
  void prefetch(ObjectId id) const { util::prefetch_row(entries_, id.value()); }

  /// Admits an object of the given size. The object must not be resident
  /// and must fit: used() + size <= capacity(). Objects enter fresh.
  void load(ObjectId id, Bytes size);

  /// Removes a resident object.
  void evict(ObjectId id);

  /// Grows a resident object (a shipped update was applied). May push
  /// used() past capacity(); the caller must evict until it fits again.
  void grow(ObjectId id, Bytes delta);

  [[nodiscard]] bool over_capacity() const { return used_ > capacity_; }

  /// Staleness flag: set when the server reports an update for a resident
  /// object, cleared when outstanding updates have been shipped/applied.
  [[nodiscard]] bool is_stale(ObjectId id) const;
  void mark_stale(ObjectId id);
  void mark_fresh(ObjectId id);

  /// Snapshot of resident object ids in ascending id order. Allocates; hot
  /// paths use for_each_resident instead.
  [[nodiscard]] std::vector<ObjectId> resident_objects() const;

  /// Visits every resident object as fn(ObjectId, Bytes size) in ascending
  /// id order, without allocating. The walk is O(id_count()), not
  /// O(object_count()). Pinned by tests/iteration_order_test.cpp.
  template <typename Fn>
  void for_each_resident(Fn&& fn) const {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].resident) {
        fn(ObjectId{static_cast<std::int64_t>(i)}, entries_[i].size);
      }
    }
  }

  /// Drops everything (cache-node restart in failure tests).
  void clear();

 private:
  struct Entry {
    Bytes size;
    bool resident = false;
    bool stale = false;
  };

  Bytes capacity_;
  Bytes used_;
  std::size_t resident_count_ = 0;
  std::vector<Entry> entries_;  // indexed by ObjectId

  /// The row index of a resident object; DELTA_CHECKs residency.
  [[nodiscard]] std::size_t resident_slot(ObjectId id) const;
};

}  // namespace delta::cache
