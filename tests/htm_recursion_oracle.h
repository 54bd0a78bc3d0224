// Test oracle: the node-by-node HTM recursion that recomputes every
// trixel's geometry through Trixel::child at each visit. htm::cover_region
// and htm::locate descend the precomputed mesh instead; they must return
// exactly what these reference versions return, at every level.
#pragma once

#include <algorithm>
#include <vector>

#include "htm/region.h"
#include "htm/trixel.h"
#include "util/check.h"

namespace delta::htm::oracle {

namespace detail {

enum class Overlap { kOutside, kPartial, kInside };

inline Overlap classify(const Trixel& t, const Region& region) {
  const Vec3 c = t.center();
  const double r = t.bounding_radius();
  if (region_distance_to(region, c) > r) return Overlap::kOutside;
  if (region_contains(region, c) &&
      std::all_of(t.vertices().begin(), t.vertices().end(),
                  [&](const Vec3& v) { return region_contains(region, v); })) {
    return Overlap::kInside;
  }
  return Overlap::kPartial;
}

inline void descend(const Trixel& t, const Region& region, int target_level,
                    std::vector<HtmId>& out) {
  const Overlap o = classify(t, region);
  if (o == Overlap::kOutside) return;
  if (t.level() == target_level) {
    out.push_back(t.id());
    return;
  }
  if (o == Overlap::kInside) {
    const int depth = target_level - t.level();
    const HtmId first = t.id() << (2 * depth);
    const HtmId count = 1LL << (2 * depth);
    for (HtmId i = 0; i < count; ++i) out.push_back(first + i);
    return;
  }
  for (int c = 0; c < 4; ++c) descend(t.child(c), region, target_level, out);
}

}  // namespace detail

/// Reference cover_region: sorted, unique level-`level` ids.
inline std::vector<HtmId> cover_region(const Region& region, int level) {
  std::vector<HtmId> out;
  for (int r = 0; r < 8; ++r) {
    detail::descend(Trixel::root(r), region, level, out);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Reference locate: first containing root, then first containing child.
inline HtmId locate(const Vec3& p, int level) {
  const Vec3 unit = normalized(p);
  for (int r = 0; r < 8; ++r) {
    Trixel t = Trixel::root(r);
    if (!t.contains(unit)) continue;
    for (int l = 0; l < level; ++l) {
      bool descended = false;
      for (int c = 0; c < 4; ++c) {
        const Trixel ch = t.child(c);
        if (ch.contains(unit)) {
          t = ch;
          descended = true;
          break;
        }
      }
      DELTA_CHECK_MSG(descended, "point escaped trixel during descent");
    }
    return t.id();
  }
  DELTA_CHECK_MSG(false, "point not located in any root trixel");
  return 0;  // unreachable
}

}  // namespace delta::htm::oracle
