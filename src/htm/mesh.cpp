#include "htm/mesh.h"

#include <cmath>
#include <mutex>
#include <vector>

#include "util/check.h"

namespace delta::htm {

// The size the mesh.h and README figures assume.
static_assert(sizeof(MeshNode) == 200);

namespace {

// Appends t's descendants `depth` levels below it, in id order: a
// depth-first walk visiting children 0..3 in turn is exactly the id order,
// and it derives every node through the same Trixel::child chain that
// Trixel::from_id follows.
void collect(const Trixel& t, int depth, std::vector<MeshNode>& out) {
  if (depth == 0) {
    const auto& v = t.vertices();
    const Vec3 center = t.center();
    const double radius = t.bounding_radius();
    const RaDec center_ra_dec = to_ra_dec(center);
    out.push_back({v, center, radius, t.area(), center_ra_dec,
                   std::cos(degrees_to_radians(center_ra_dec.dec_deg)),
                   {to_ra_dec(v[0]), to_ra_dec(v[1]), to_ra_dec(v[2])},
                   std::cos(radius), std::sin(radius)});
    return;
  }
  for (int c = 0; c < 4; ++c) collect(t.child(c), depth - 1, out);
}

struct MeshLevels {
  std::array<std::once_flag, kMaxMeshLevel + 1> once;
  std::array<std::vector<MeshNode>, kMaxMeshLevel + 1> nodes;
};

MeshLevels& levels() {
  static MeshLevels instance;
  return instance;
}

}  // namespace

std::span<const MeshNode> mesh_level(int level) {
  DELTA_CHECK_MSG(level >= 0 && level <= kMaxMeshLevel,
                  "HTM level " << level << " is outside the precomputed mesh "
                  "(levels 0.." << kMaxMeshLevel << "): the mesh grows 4x per "
                  "level, 2.2 MB at level 5 and 140 MB at level 8");
  MeshLevels& m = levels();
  const auto l = static_cast<std::size_t>(level);
  std::call_once(m.once[l], [&] {
    std::vector<MeshNode>& out = m.nodes[l];
    out.reserve(static_cast<std::size_t>(trixel_count_at_level(level)));
    for (int r = 0; r < 8; ++r) collect(Trixel::root(r), level, out);
  });
  return m.nodes[l];
}

MeshRows mesh_rows(int level) {
  const MeshNode* deepest = mesh_level(level).data();  // checks `level`
  MeshRows rows{};
  rows[static_cast<std::size_t>(level)] = deepest;
  for (int l = 0; l < level; ++l) {
    rows[static_cast<std::size_t>(l)] = mesh_level(l).data();
  }
  return rows;
}

HtmId locate(const Vec3& p, int level) {
  const MeshRows rows = mesh_rows(level);
  const Vec3 unit = normalized(p);
  for (std::size_t r = 0; r < 8; ++r) {
    if (!rows[0][r].contains(unit)) continue;
    std::size_t index = r;  // index_in_level of the current trixel
    for (std::size_t l = 1; l <= static_cast<std::size_t>(level); ++l) {
      bool descended = false;
      for (std::size_t c = 0; c < 4; ++c) {
        if (rows[l][4 * index + c].contains(unit)) {
          index = 4 * index + c;
          descended = true;
          break;
        }
      }
      DELTA_CHECK_MSG(descended, "point escaped trixel during descent");
    }
    return id_from_index(level, static_cast<std::int64_t>(index));
  }
  DELTA_CHECK_MSG(false, "point not located in any root trixel");
  return 0;  // unreachable
}

}  // namespace delta::htm
