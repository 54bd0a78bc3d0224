#include "htm/cover.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numbers>
#include <type_traits>
#include <variant>

#include "htm/mesh.h"
#include "util/check.h"

namespace delta::htm {

namespace {

thread_local std::int64_t t_nodes_visited = 0;
thread_local std::int64_t t_exact_fallbacks = 0;

// Node tests of the descent, one per region type. Each answers exactly what
// the region's own functions answer for the node:
//   outside(t): region distance_to(t.center) > t.bounding_radius;
//   inside(t):  the centre and all three corners are contained.
// (Inside is approximate: boundary bulges are caught by the recursion, and
// at worst a boundary trixel is descended into instead of enumerated whole,
// which is conservative.)

// Great-circle bands: the exact functions on the node's vectors.
struct BandTest {
  const GreatCircleBand& band;

  bool outside(const MeshNode& t) const {
    return band.distance_to(t.center) > t.bounding_radius;
  }
  bool inside(const MeshNode& t) const {
    return band.contains(t.center) &&
           std::all_of(t.vertices.begin(), t.vertices.end(),
                       [&](const Vec3& v) { return band.contains(v); });
  }
};

// (ra, dec) boxes: the exact functions fed the node's stored (ra, dec) and
// cos(dec), which are the values their Vec3 versions would compute.
struct RectTest {
  const RaDecRect& rect;

  bool outside(const MeshNode& t) const {
    return rect.distance_to(t.center_ra_dec, t.center_cos_dec) >
           t.bounding_radius;
  }
  bool inside(const MeshNode& t) const {
    return rect.contains(t.center_ra_dec) &&
           std::all_of(t.vertex_ra_dec.begin(), t.vertex_ra_dec.end(),
                       [&](const RaDec& v) { return rect.contains(v); });
  }
};

// Cones, from one dot product per point. With u the unit cone centre and
// θ the angle from u to a unit point p, dot(u, p) = cos θ, and cos falls
// monotonically on [0, π]; so while r and r + br lie in [0, π],
//   θ > r + br  when  dot < cos(r + br) = cos r·cos br − sin r·sin br,
//   θ < r       when  dot > cos r,   and   θ > r  when  dot < cos r.
// A dot more than kKappa past its threshold puts θ at least kKappa (1e-12
// rad) past the bound, since |d cos θ / dθ| <= 1. That is ~1000x what the
// exact test's atan2 and these products can err by (~1e-15 rad), so the
// filter gives the exact test's answer. A dot within kKappa of its
// threshold, a bound not clear of [0, π), or a centre with no usable norm
// goes to Cone::distance_to / Cone::contains themselves.
class ConeTest {
 public:
  explicit ConeTest(const Cone& cone)
      : cone_(cone),
        unit_(normalized(cone.center)),
        cos_r_(std::cos(cone.radius_rad)),
        sin_r_(std::sin(cone.radius_rad)),
        // A zero, subnormal or non-finite squared norm leaves no accurate
        // unit centre (Cone measures a zero centre as 0 from every point).
        filter_(cone.radius_rad >= 0.0 && cone.radius_rad < kPi - kKappa &&
                std::isnormal(dot(cone.center, cone.center))) {}

  bool outside(const MeshNode& t) const {
    if (filter_ && cone_.radius_rad + t.bounding_radius < kPi - kKappa) {
      const double d = dot(unit_, t.center);
      const double cos_bound = cos_r_ * t.cos_bounding_radius -
                               sin_r_ * t.sin_bounding_radius;
      if (d < cos_bound - kKappa) {
        DELTA_DCHECK(exact_outside(t));
        return true;
      }
      if (d > cos_bound + kKappa) {
        DELTA_DCHECK(!exact_outside(t));
        return false;
      }
    }
    ++t_exact_fallbacks;
    return exact_outside(t);
  }

  bool inside(const MeshNode& t) const {
    return contains(t.center) &&
           std::all_of(t.vertices.begin(), t.vertices.end(),
                       [&](const Vec3& v) { return contains(v); });
  }

 private:
  static constexpr double kPi = std::numbers::pi;
  static constexpr double kKappa = 1e-12;

  bool exact_outside(const MeshNode& t) const {
    return cone_.distance_to(t.center) > t.bounding_radius;
  }

  bool contains(const Vec3& p) const {
    if (filter_) {
      const double d = dot(unit_, p);
      if (d > cos_r_ + kKappa) {
        DELTA_DCHECK(cone_.contains(p));
        return true;
      }
      if (d < cos_r_ - kKappa) {
        DELTA_DCHECK(!cone_.contains(p));
        return false;
      }
    }
    ++t_exact_fallbacks;
    return cone_.contains(p);
  }

  const Cone& cone_;
  Vec3 unit_;
  double cos_r_;
  double sin_r_;
  bool filter_;
};

// Visits the trixel `index` (index_in_level) of `level` and its subtree.
// Children are visited in id order, so ids reach `out` sorted and unique.
template <class Test>
void descend(const MeshRows& rows, int level, std::int64_t index,
             const Test& test, int target_level, std::vector<HtmId>& out) {
  ++t_nodes_visited;
  const MeshNode& t =
      rows[static_cast<std::size_t>(level)][static_cast<std::size_t>(index)];
  // Outside when the bounding circle provably misses the region.
  if (test.outside(t)) return;
  const HtmId id = first_id_at_level(level) + index;
  if (level == target_level) {
    out.push_back(id);  // partial or inside: either way covered
    return;
  }
  if (test.inside(t)) {
    // Whole subtree is inside: enumerate descendants arithmetically.
    const int depth = target_level - level;
    const HtmId first = id << (2 * depth);
    const HtmId count = 1LL << (2 * depth);
    for (HtmId i = 0; i < count; ++i) out.push_back(first + i);
    return;
  }
  for (int c = 0; c < 4; ++c) {
    descend(rows, level + 1, 4 * index + c, test, target_level, out);
  }
}

template <class Test>
std::vector<HtmId> cover_with(const Test& test, int level) {
  const MeshRows rows = mesh_rows(level);  // checks level <= kMaxMeshLevel
  std::vector<HtmId> out;
  for (int r = 0; r < 8; ++r) descend(rows, 0, r, test, level, out);
  return out;
}

}  // namespace

std::vector<HtmId> cover_region(const Region& region, int level) {
  t_nodes_visited = 0;
  t_exact_fallbacks = 0;
  std::vector<HtmId> out = std::visit(
      [&](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, Cone>) {
          return cover_with(ConeTest{r}, level);
        } else if constexpr (std::is_same_v<T, RaDecRect>) {
          return cover_with(RectTest{r}, level);
        } else {
          return cover_with(BandTest{r}, level);
        }
      },
      region);
  DELTA_DCHECK(std::adjacent_find(out.begin(), out.end(),
                                  std::greater_equal<>()) == out.end());
  return out;
}

std::int64_t last_cover_nodes_visited() { return t_nodes_visited; }

std::int64_t last_cover_exact_fallbacks() { return t_exact_fallbacks; }

}  // namespace delta::htm
