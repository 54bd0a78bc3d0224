#include "htm/region.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace delta::htm {

namespace {

/// Distance from `ra` to the interval [lo, hi] on the 360-degree circle,
/// in degrees. Zero when inside. Handles wrapped intervals (lo > hi).
double ra_interval_distance_deg(double ra, double lo, double hi) {
  const auto in = [&](double x) {
    if (lo <= hi) return x >= lo && x <= hi;
    return x >= lo || x <= hi;  // wrapped
  };
  if (in(ra)) return 0.0;
  const auto circ_dist = [](double a, double b) {
    const double d = std::fabs(a - b);
    return std::min(d, 360.0 - d);
  };
  return std::min(circ_dist(ra, lo), circ_dist(ra, hi));
}

}  // namespace

bool Cone::contains(const Vec3& p) const {
  return angular_distance(center, p) <= radius_rad;
}

double Cone::distance_to(const Vec3& p) const {
  return std::max(0.0, angular_distance(center, p) - radius_rad);
}

bool RaDecRect::contains(const Vec3& p) const { return contains(to_ra_dec(p)); }

bool RaDecRect::contains(const RaDec& rd) const {
  if (rd.dec_deg < dec_lo_deg || rd.dec_deg > dec_hi_deg) return false;
  return ra_interval_distance_deg(rd.ra_deg, ra_lo_deg, ra_hi_deg) == 0.0;
}

double RaDecRect::distance_to(const Vec3& p) const {
  const RaDec rd = to_ra_dec(p);
  return distance_to(rd, std::cos(degrees_to_radians(rd.dec_deg)));
}

double RaDecRect::distance_to(const RaDec& rd, double cos_dec) const {
  const double ddec =
      rd.dec_deg < dec_lo_deg
          ? dec_lo_deg - rd.dec_deg
          : (rd.dec_deg > dec_hi_deg ? rd.dec_deg - dec_hi_deg : 0.0);
  const double dra = ra_interval_distance_deg(rd.ra_deg, ra_lo_deg, ra_hi_deg);
  // Scale the ra offset by cos(dec) to approximate great-circle distance;
  // shrink slightly so the bound stays a lower bound (covers err toward
  // inclusion rather than dropping objects a query actually touches).
  const double approx_deg =
      std::sqrt(ddec * ddec + dra * cos_dec * (dra * cos_dec));
  return 0.9 * degrees_to_radians(approx_deg);
}

bool GreatCircleBand::contains(const Vec3& p) const {
  const double colat = angular_distance(pole, p);
  return std::fabs(colat - std::numbers::pi / 2.0) <= half_width_rad;
}

double GreatCircleBand::distance_to(const Vec3& p) const {
  const double colat = angular_distance(pole, p);
  return std::max(0.0,
                  std::fabs(colat - std::numbers::pi / 2.0) - half_width_rad);
}

bool region_contains(const Region& region, const Vec3& p) {
  return std::visit([&](const auto& r) { return r.contains(p); }, region);
}

double region_distance_to(const Region& region, const Vec3& p) {
  return std::visit([&](const auto& r) { return r.distance_to(p); }, region);
}

Vec3 region_anchor(const Region& region) {
  return std::visit(
      [](const auto& r) -> Vec3 {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, Cone>) {
          return normalized(r.center);
        } else if constexpr (std::is_same_v<T, RaDecRect>) {
          double ra_mid = 0.0;
          if (r.ra_lo_deg <= r.ra_hi_deg) {
            ra_mid = (r.ra_lo_deg + r.ra_hi_deg) / 2.0;
          } else {
            ra_mid = std::fmod((r.ra_lo_deg + r.ra_hi_deg + 360.0) / 2.0, 360.0);
          }
          return from_ra_dec(ra_mid, (r.dec_lo_deg + r.dec_hi_deg) / 2.0);
        } else {
          // Any point on the great circle: an arbitrary orthogonal direction.
          const Vec3 pole = normalized(r.pole);
          const Vec3 seed = std::fabs(pole.z) < 0.9 ? Vec3{0.0, 0.0, 1.0}
                                                    : Vec3{1.0, 0.0, 0.0};
          return normalized(cross(pole, seed));
        }
      },
      region);
}

}  // namespace delta::htm
