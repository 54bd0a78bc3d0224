#include "cache/lru.h"

#include <algorithm>

#include "util/check.h"

namespace delta::cache {

LruPolicy::LruPolicy(const CacheStore* store)
    : store_(store), last_use_(store != nullptr ? store->id_count() : 0) {
  DELTA_CHECK(store != nullptr);
}

void LruPolicy::on_access(ObjectId id) {
  DELTA_CHECK_MSG(last_use_.contains(id),
                  "LRU access to untracked object " << id.value());
  last_use_.update(id, ++clock_);
}

const BatchDecision& LruPolicy::decide_batch(
    const std::vector<LoadCandidate>& candidates) {
  decision_.load.clear();
  decision_.evict.clear();
  admitted_.clear();
  Bytes total = store_->used();
  for (const LoadCandidate& c : candidates) {
    DELTA_CHECK(!store_->contains(c.id));
    if (c.size > store_->capacity()) continue;
    admitted_.push_back(c);
    total += c.size;
  }
  // Evict stale residents oldest-first until the batch fits; if the batch
  // alone exceeds capacity, drop trailing candidates. The heap top is the
  // deterministic (stamp, id) arg-min.
  while (total > store_->capacity() && !last_use_.empty()) {
    const ObjectId victim = last_use_.top().key;
    total -= store_->bytes_of(victim);
    last_use_.pop();
    decision_.evict.push_back(victim);
  }
  while (total > store_->capacity() && !admitted_.empty()) {
    total -= admitted_.back().size;
    admitted_.pop_back();
  }
  DELTA_CHECK(total <= store_->capacity());
  for (const LoadCandidate& c : admitted_) {
    decision_.load.push_back(c.id);
    last_use_.push(c.id, ++clock_);
  }
  return decision_;
}

const std::vector<ObjectId>& LruPolicy::shed_overflow() {
  shed_victims_.clear();
  Bytes used = store_->used();
  while (used > store_->capacity()) {
    DELTA_CHECK_MSG(!last_use_.empty(), "cannot shed: no resident objects");
    const ObjectId victim = last_use_.top().key;
    used -= store_->bytes_of(victim);
    last_use_.pop();
    shed_victims_.push_back(victim);
  }
  return shed_victims_;
}

void LruPolicy::forget(ObjectId id) { last_use_.erase(id); }

}  // namespace delta::cache
