#include "htm/cover.h"

#include <algorithm>
#include <functional>

#include "htm/mesh.h"
#include "util/check.h"

namespace delta::htm {

namespace {

thread_local std::int64_t t_nodes_visited = 0;

// Inside when all corners and the center are contained. (Approximate:
// boundary bulges are caught by the recursion below, and at worst a
// boundary trixel is descended into instead of enumerated whole, which is
// conservative.)
bool inside(const MeshNode& t, const Region& region) {
  return region_contains(region, t.center) &&
         std::all_of(t.vertices.begin(), t.vertices.end(),
                     [&](const Vec3& v) { return region_contains(region, v); });
}

// Visits the trixel `index` (index_in_level) of `level` and its subtree.
// Children are visited in id order, so ids reach `out` sorted and unique.
void descend(const MeshRows& rows, int level, std::int64_t index,
             const Region& region, int target_level,
             std::vector<HtmId>& out) {
  ++t_nodes_visited;
  const MeshNode& t =
      rows[static_cast<std::size_t>(level)][static_cast<std::size_t>(index)];
  // Outside when the bounding circle provably misses the region.
  if (region_distance_to(region, t.center) > t.bounding_radius) return;
  const HtmId id = first_id_at_level(level) + index;
  if (level == target_level) {
    out.push_back(id);  // partial or inside: either way covered
    return;
  }
  if (inside(t, region)) {
    // Whole subtree is inside: enumerate descendants arithmetically.
    const int depth = target_level - level;
    const HtmId first = id << (2 * depth);
    const HtmId count = 1LL << (2 * depth);
    for (HtmId i = 0; i < count; ++i) out.push_back(first + i);
    return;
  }
  for (int c = 0; c < 4; ++c) {
    descend(rows, level + 1, 4 * index + c, region, target_level, out);
  }
}

}  // namespace

std::vector<HtmId> cover_region(const Region& region, int level) {
  const MeshRows rows = mesh_rows(level);  // checks level <= kMaxMeshLevel
  t_nodes_visited = 0;
  std::vector<HtmId> out;
  for (int r = 0; r < 8; ++r) descend(rows, 0, r, region, level, out);
  DELTA_DCHECK(std::adjacent_find(out.begin(), out.end(),
                                  std::greater_equal<>()) == out.end());
  return out;
}

std::int64_t last_cover_nodes_visited() { return t_nodes_visited; }

}  // namespace delta::htm
