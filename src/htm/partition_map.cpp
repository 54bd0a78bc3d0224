#include "htm/partition_map.h"

#include <algorithm>
#include <queue>

#include "htm/mesh.h"
#include "util/check.h"

namespace delta::htm {

namespace {

struct Candidate {
  double weight = 0.0;
  int level = 0;
  HtmId id = 0;
  friend bool operator<(const Candidate& a, const Candidate& b) {
    // Split shallowest (largest-area) partitions first — the paper's
    // partitions are "roughly equi-area" with the data skew coming from
    // density variation, not from adaptive area refinement. Within a level,
    // split the heaviest first; ties broken by id for determinism.
    if (a.level != b.level) return a.level > b.level;  // min level on top
    if (a.weight != b.weight) return a.weight < b.weight;
    return a.id > b.id;
  }
};

}  // namespace

PartitionMap PartitionMap::build(int base_level,
                                 const std::vector<double>& base_weights,
                                 std::size_t target_count) {
  // The map's region and point lookups descend the precomputed mesh.
  DELTA_CHECK(base_level >= 1 && base_level <= kMaxMeshLevel);
  const std::int64_t base_count = trixel_count_at_level(base_level);
  DELTA_CHECK_MSG(static_cast<std::int64_t>(base_weights.size()) == base_count,
                  "expected " << base_count << " base weights, got "
                              << base_weights.size());
  DELTA_CHECK(target_count >= 1);

  // Prefix sums for O(1) subtree weights: a trixel at level l covers the
  // contiguous base-index range of its descendants.
  std::vector<double> prefix(static_cast<std::size_t>(base_count) + 1, 0.0);
  for (std::int64_t i = 0; i < base_count; ++i) {
    DELTA_CHECK(base_weights[static_cast<std::size_t>(i)] >= 0.0);
    prefix[static_cast<std::size_t>(i + 1)] =
        prefix[static_cast<std::size_t>(i)] +
        base_weights[static_cast<std::size_t>(i)];
  }
  const HtmId base_first = first_id_at_level(base_level);
  const auto subtree_weight = [&](HtmId id) {
    const int depth = base_level - level_of(id);
    const HtmId lo = (id << (2 * depth)) - base_first;
    const HtmId hi = lo + (1LL << (2 * depth));
    return prefix[static_cast<std::size_t>(hi)] -
           prefix[static_cast<std::size_t>(lo)];
  };

  std::priority_queue<Candidate> heap;
  std::vector<HtmId> final_partitions;
  std::size_t non_empty = 0;
  for (int r = 0; r < 8; ++r) {
    const HtmId id = 8 + r;
    const double w = subtree_weight(id);
    if (w > 0.0) {
      heap.push({w, 0, id});
      ++non_empty;
    } else {
      final_partitions.push_back(id);  // empty: never split
    }
  }

  while (non_empty < target_count && !heap.empty()) {
    const Candidate top = heap.top();
    heap.pop();
    if (top.level >= base_level) {
      // Already at base granularity: retire it and split the next heaviest.
      final_partitions.push_back(top.id);
      continue;
    }
    --non_empty;
    for (int c = 0; c < 4; ++c) {
      const HtmId child = child_of(top.id, c);
      const double w = subtree_weight(child);
      if (w > 0.0) {
        heap.push({w, top.level + 1, child});
        ++non_empty;
      } else {
        final_partitions.push_back(child);
      }
    }
  }
  while (!heap.empty()) {
    final_partitions.push_back(heap.top().id);
    heap.pop();
  }
  std::sort(final_partitions.begin(), final_partitions.end(),
            [](HtmId a, HtmId b) {
              // Order by position on the base grid for stable object ids.
              const int la = level_of(a);
              const int lb = level_of(b);
              const HtmId pa = a << (2 * (24 - la));
              const HtmId pb = b << (2 * (24 - lb));
              return pa < pb;
            });

  PartitionMap map;
  map.base_level_ = base_level;
  map.partition_trixels_ = final_partitions;
  map.base_to_object_.assign(static_cast<std::size_t>(base_count), -1);
  map.partition_weights_.reserve(final_partitions.size());
  for (std::size_t oid = 0; oid < final_partitions.size(); ++oid) {
    const HtmId id = final_partitions[oid];
    const int depth = base_level - level_of(id);
    const HtmId lo = (id << (2 * depth)) - base_first;
    const HtmId hi = lo + (1LL << (2 * depth));
    for (HtmId i = lo; i < hi; ++i) {
      DELTA_CHECK_MSG(map.base_to_object_[static_cast<std::size_t>(i)] == -1,
                      "overlapping partitions");
      map.base_to_object_[static_cast<std::size_t>(i)] =
          static_cast<std::int32_t>(oid);
    }
    const double w = subtree_weight(id);
    map.partition_weights_.push_back(w);
    if (w > 0.0) ++map.object_count_;
  }
  // Every base trixel must be owned.
  DELTA_CHECK(std::none_of(map.base_to_object_.begin(),
                           map.base_to_object_.end(),
                           [](std::int32_t o) { return o < 0; }));
  return map;
}

ObjectId PartitionMap::object_for_base_index(std::int64_t base_index) const {
  DELTA_CHECK(base_index >= 0 &&
              base_index < static_cast<std::int64_t>(base_to_object_.size()));
  return ObjectId{base_to_object_[static_cast<std::size_t>(base_index)]};
}

ObjectId PartitionMap::object_for_trixel(HtmId base_trixel) const {
  return object_for_base_index(index_in_level(base_trixel));
}

HtmId PartitionMap::partition_trixel(ObjectId id) const {
  DELTA_CHECK(id.valid() &&
              id.value() < static_cast<std::int64_t>(partition_trixels_.size()));
  return partition_trixels_[static_cast<std::size_t>(id.value())];
}

double PartitionMap::partition_weight(ObjectId id) const {
  DELTA_CHECK(id.valid() &&
              id.value() < static_cast<std::int64_t>(partition_weights_.size()));
  return partition_weights_[static_cast<std::size_t>(id.value())];
}

std::pair<std::int64_t, std::int64_t> PartitionMap::base_range(
    ObjectId id) const {
  const HtmId trixel = partition_trixel(id);
  const int depth = base_level_ - level_of(trixel);
  const HtmId base_first = first_id_at_level(base_level_);
  const std::int64_t lo = (trixel << (2 * depth)) - base_first;
  return {lo, lo + (1LL << (2 * depth))};
}

std::vector<ObjectId> PartitionMap::objects_for_region(
    const Region& region) const {
  const std::vector<HtmId> trixels = cover_region(region, base_level_);
  std::vector<ObjectId> out;
  out.reserve(trixels.size());
  for (const HtmId t : trixels) {
    out.push_back(object_for_trixel(t));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

ObjectId PartitionMap::object_for_point(const Vec3& p) const {
  return object_for_trixel(locate(p, base_level_));
}

}  // namespace delta::htm
