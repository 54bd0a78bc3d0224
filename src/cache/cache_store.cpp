#include "cache/cache_store.h"

#include <algorithm>

#include "util/check.h"

namespace delta::cache {

CacheStore::CacheStore(Bytes capacity, std::size_t id_count)
    : capacity_(capacity), entries_(id_count) {
  DELTA_CHECK(capacity.count() >= 0);
}

bool CacheStore::contains(ObjectId id) const {
  const auto i = static_cast<std::size_t>(id.value());
  return i < entries_.size() && entries_[i].resident;
}

std::size_t CacheStore::resident_slot(ObjectId id) const {
  DELTA_CHECK_MSG(contains(id), "object " << id.value() << " not resident");
  return static_cast<std::size_t>(id.value());
}

Bytes CacheStore::bytes_of(ObjectId id) const {
  return entries_[resident_slot(id)].size;
}

void CacheStore::load(ObjectId id, Bytes size) {
  const auto i = static_cast<std::size_t>(id.value());
  DELTA_CHECK_MSG(i < entries_.size(),
                  "object " << id.value() << " out of range");
  DELTA_CHECK(size.count() >= 0);
  Entry& entry = entries_[i];
  DELTA_CHECK_MSG(!entry.resident,
                  "object " << id.value() << " already cached");
  DELTA_CHECK_MSG(used_ + size <= capacity_,
                  "load would exceed cache capacity");
  entry = Entry{size, true, false};
  used_ += size;
  ++resident_count_;
}

void CacheStore::evict(ObjectId id) {
  Entry& entry = entries_[resident_slot(id)];
  used_ -= entry.size;
  entry = Entry{};
  --resident_count_;
  DELTA_CHECK(used_.count() >= 0);
}

void CacheStore::grow(ObjectId id, Bytes delta) {
  DELTA_CHECK(delta.count() >= 0);
  entries_[resident_slot(id)].size += delta;
  used_ += delta;
}

bool CacheStore::is_stale(ObjectId id) const {
  return entries_[resident_slot(id)].stale;
}

void CacheStore::mark_stale(ObjectId id) {
  entries_[resident_slot(id)].stale = true;
}

void CacheStore::mark_fresh(ObjectId id) {
  entries_[resident_slot(id)].stale = false;
}

std::vector<ObjectId> CacheStore::resident_objects() const {
  std::vector<ObjectId> out;
  out.reserve(resident_count_);
  for_each_resident([&out](ObjectId id, Bytes) { out.push_back(id); });
  return out;
}

void CacheStore::clear() {
  std::fill(entries_.begin(), entries_.end(), Entry{});
  used_ = Bytes{};
  resident_count_ = 0;
}

}  // namespace delta::cache
