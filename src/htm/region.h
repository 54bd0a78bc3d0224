// Spherical query regions. Astronomy queries in the trace specify one of
// these shapes (§6.1: range/cone searches, spatial self-joins, great-circle
// scan chunks); the semantic framework maps each region to the set of data
// objects it touches via an HTM cover.
#pragma once

#include <variant>

#include "htm/vec3.h"

namespace delta::htm {

/// Spherical cap: all points within `radius_rad` of `center`.
struct Cone {
  Vec3 center{0.0, 0.0, 1.0};
  double radius_rad = 0.0;

  [[nodiscard]] bool contains(const Vec3& p) const;
  /// Lower bound on the angular distance from p to the region (0 inside).
  [[nodiscard]] double distance_to(const Vec3& p) const;
};

/// (ra, dec) box in degrees; ra wraps modulo 360 (ra_lo may exceed ra_hi).
struct RaDecRect {
  double ra_lo_deg = 0.0;
  double ra_hi_deg = 0.0;
  double dec_lo_deg = 0.0;
  double dec_hi_deg = 0.0;

  [[nodiscard]] bool contains(const Vec3& p) const;
  [[nodiscard]] double distance_to(const Vec3& p) const;
  /// The same tests on a point already converted: `rd` is to_ra_dec(p) and
  /// `cos_dec` is std::cos(degrees_to_radians(rd.dec_deg)). The Vec3
  /// versions call these, so both give the same doubles.
  [[nodiscard]] bool contains(const RaDec& rd) const;
  [[nodiscard]] double distance_to(const RaDec& rd, double cos_dec) const;
};

/// Band of half-width `half_width_rad` around the great circle whose pole is
/// `pole` — the footprint of a telescope scan along a great circle (§6.1).
struct GreatCircleBand {
  Vec3 pole{0.0, 0.0, 1.0};
  double half_width_rad = 0.0;

  [[nodiscard]] bool contains(const Vec3& p) const;
  [[nodiscard]] double distance_to(const Vec3& p) const;
};

using Region = std::variant<Cone, RaDecRect, GreatCircleBand>;

bool region_contains(const Region& region, const Vec3& p);
double region_distance_to(const Region& region, const Vec3& p);

/// Representative interior point (used for seeding covers and tests).
Vec3 region_anchor(const Region& region);

}  // namespace delta::htm
