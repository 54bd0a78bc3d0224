#include "cache/gds.h"

#include <algorithm>

#include "util/check.h"

namespace delta::cache {

namespace {

double ratio(Bytes cost, Bytes size) {
  if (size.count() <= 0) return 1.0;
  return cost.as_double() / size.as_double();
}

}  // namespace

GreedyDualSize::GreedyDualSize(const CacheStore* store)
    : store_(store), residents_(store != nullptr ? store->id_count() : 0) {
  DELTA_CHECK(store != nullptr);
}

void GreedyDualSize::on_access(ObjectId id) {
  const Priority* p = residents_.find(id);
  DELTA_CHECK_MSG(p != nullptr,
                  "GDS access to untracked object " << id.value());
  // inflation_ never falls, so a hit never lowers a credit.
  residents_.raise(id, Priority{inflation_ + p->cost_ratio, p->cost_ratio});
}

double GreedyDualSize::credit_of(ObjectId id) const {
  const Priority* p = residents_.find(id);
  DELTA_CHECK(p != nullptr);
  return p->credit;
}

const BatchDecision& GreedyDualSize::decide_batch(
    const std::vector<LoadCandidate>& candidates) {
  decision_.load.clear();
  decision_.evict.clear();
  batch_.clear();
  batch_.reserve(candidates.size());

  Bytes total = store_->used();
  for (const LoadCandidate& c : candidates) {
    DELTA_CHECK_MSG(!store_->contains(c.id),
                    "load candidate " << c.id.value() << " already resident");
    if (c.size > store_->capacity()) continue;  // can never fit
    const double r = ratio(c.load_cost, c.size);
    batch_.push_back({c.id, c.size, inflation_ + r, r});
    total += c.size;
  }
  std::sort(batch_.begin(), batch_.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.credit != b.credit) return a.credit < b.credit;
              return a.id < b.id;  // deterministic tie-break
            });

  // Lazy GDS: decide the whole batch at once by evicting in increasing
  // (credit, id) order over residents ∪ candidates until the tentative set
  // fits. A candidate "evicted" here is simply never loaded — exactly the
  // inefficiency the lazy variant removes. The residents side of that order
  // comes from the heap top, so the merge walks the same global order the
  // old full sort produced without ever touching untouched residents.
  std::size_t cursor = 0;
  dropped_.assign(batch_.size(), false);
  while (total > store_->capacity()) {
    const bool have_candidate = cursor < batch_.size();
    const bool have_resident = !residents_.empty();
    if (!have_candidate && !have_resident) break;
    bool pick_candidate = have_candidate;
    if (have_candidate && have_resident) {
      const Candidate& c = batch_[cursor];
      const auto& top = residents_.top();
      pick_candidate = c.credit < top.priority.credit ||
                       (c.credit == top.priority.credit && c.id < top.key);
    }
    if (pick_candidate) {
      const Candidate& victim = batch_[cursor];
      dropped_[cursor] = true;
      total -= victim.size;
      inflation_ = std::max(inflation_, victim.credit);
      ++cursor;
    } else {
      const auto& victim = residents_.top();
      total -= store_->bytes_of(victim.key);
      inflation_ = std::max(inflation_, victim.priority.credit);
      decision_.evict.push_back(victim.key);
      residents_.pop();
    }
  }
  DELTA_CHECK(total <= store_->capacity());

  for (std::size_t i = 0; i < batch_.size(); ++i) {
    if (dropped_[i]) continue;
    decision_.load.push_back(batch_[i].id);
    residents_.push(batch_[i].id,
                    Priority{batch_[i].credit, batch_[i].cost_ratio});
  }
  return decision_;
}

const std::vector<ObjectId>& GreedyDualSize::shed_overflow() {
  shed_victims_.clear();
  Bytes used = store_->used();
  while (used > store_->capacity()) {
    DELTA_CHECK_MSG(!residents_.empty(), "cannot shed: no resident objects");
    // The heap top IS the deterministic (credit, id) arg-min.
    const auto& victim = residents_.top();
    used -= store_->bytes_of(victim.key);
    inflation_ = std::max(inflation_, victim.priority.credit);
    shed_victims_.push_back(victim.key);
    residents_.pop();
  }
  return shed_victims_;
}

void GreedyDualSize::forget(ObjectId id) { residents_.erase(id); }

}  // namespace delta::cache
