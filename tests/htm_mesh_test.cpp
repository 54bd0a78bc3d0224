// The precomputed HTM mesh must be a pure cache of Trixel geometry: every
// stored double equals what Trixel::from_id(id) computes, bit for bit, and
// cover_region / locate over the mesh return exactly what the node-by-node
// recursion (tests/htm_recursion_oracle.h) returns.
#include "htm/mesh.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <latch>
#include <numbers>
#include <stdexcept>
#include <thread>
#include <vector>

#include "htm/cover.h"
#include "htm_recursion_oracle.h"
#include "util/rng.h"

namespace delta::htm {
namespace {

constexpr int kMaxTestedLevel = 6;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const Vec3& a, const Vec3& b) {
  return same_bits(a.x, b.x) && same_bits(a.y, b.y) && same_bits(a.z, b.z);
}

bool same_bits(const RaDec& a, const RaDec& b) {
  return same_bits(a.ra_deg, b.ra_deg) && same_bits(a.dec_deg, b.dec_deg);
}

Vec3 random_unit(util::Rng& rng) {
  return normalized({rng.normal(0, 1), rng.normal(0, 1), rng.normal(0, 1)});
}

TEST(HtmMeshTest, EveryNodeEqualsTrixelFromIdBitwise) {
  for (int level = 0; level <= kMaxTestedLevel; ++level) {
    const auto nodes = mesh_level(level);
    ASSERT_EQ(static_cast<std::int64_t>(nodes.size()),
              trixel_count_at_level(level));
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const HtmId id = id_from_index(level, static_cast<std::int64_t>(i));
      const Trixel t = Trixel::from_id(id);
      const MeshNode& n = nodes[i];
      for (std::size_t v = 0; v < 3; ++v) {
        ASSERT_TRUE(same_bits(n.vertices[v], t.vertices()[v])) << "id " << id;
      }
      ASSERT_TRUE(same_bits(n.center, t.center())) << "id " << id;
      ASSERT_TRUE(same_bits(n.bounding_radius, t.bounding_radius()))
          << "id " << id;
      ASSERT_TRUE(same_bits(n.area, t.area())) << "id " << id;
      // The region-test inputs, each against the expression that defines it.
      ASSERT_TRUE(same_bits(n.center_ra_dec, to_ra_dec(t.center())))
          << "id " << id;
      ASSERT_TRUE(same_bits(
          n.center_cos_dec,
          std::cos(degrees_to_radians(to_ra_dec(t.center()).dec_deg))))
          << "id " << id;
      for (std::size_t v = 0; v < 3; ++v) {
        ASSERT_TRUE(same_bits(n.vertex_ra_dec[v], to_ra_dec(t.vertices()[v])))
            << "id " << id;
      }
      ASSERT_TRUE(same_bits(n.cos_bounding_radius,
                            std::cos(t.bounding_radius())))
          << "id " << id;
      ASSERT_TRUE(same_bits(n.sin_bounding_radius,
                            std::sin(t.bounding_radius())))
          << "id " << id;
    }
  }
}

TEST(HtmMeshTest, LevelsOutsideTheMeshAreRejected) {
  EXPECT_THROW((void)mesh_level(-1), std::logic_error);
  EXPECT_THROW((void)mesh_level(kMaxMeshLevel + 1), std::logic_error);
  EXPECT_THROW((void)cover_region(Cone{{0, 0, 1}, 0.01}, kMaxMeshLevel + 1),
               std::logic_error);
  EXPECT_THROW((void)locate({0, 0, 1}, kMaxMeshLevel + 1), std::logic_error);
  EXPECT_THROW((void)locate({0, 0, 1}, -1), std::logic_error);
}

void expect_same_cover(const Region& region, int level, int case_index) {
  ASSERT_EQ(cover_region(region, level), oracle::cover_region(region, level))
      << "case " << case_index << " level " << level;
}

TEST(HtmMeshTest, ConeCoversMatchRecursion) {
  util::Rng rng{2024};
  for (int i = 0; i < 10'500; ++i) {
    // Radii log-uniform from ~0.2 arcsec to ~30 degrees, so both tiny
    // partial covers and whole-subtree (Inside) enumerations occur.
    const double radius = std::exp(rng.uniform(std::log(1e-6), std::log(0.5)));
    expect_same_cover(Cone{random_unit(rng), radius}, i % (kMaxTestedLevel + 1),
                      i);
  }
}

TEST(HtmMeshTest, WrappingRectCoversMatchRecursion) {
  util::Rng rng{77};
  for (int i = 0; i < 1400; ++i) {
    // Every other box straddles ra = 0/360 (ra_lo > ra_hi).
    const double width = rng.uniform(0.05, 40.0);
    const double ra_lo = i % 2 == 0 ? rng.uniform(360.0 - width, 360.0)
                                    : rng.uniform(0.0, 360.0 - width);
    const double ra_hi = std::fmod(ra_lo + width, 360.0);
    const double dec_lo = rng.uniform(-89.9, 80.0);
    const double dec_hi = std::min(89.9, dec_lo + rng.uniform(0.05, 30.0));
    expect_same_cover(RaDecRect{ra_lo, ra_hi, dec_lo, dec_hi},
                      i % (kMaxTestedLevel + 1), i);
  }
}

TEST(HtmMeshTest, GreatCircleBandCoversMatchRecursion) {
  util::Rng rng{31};
  for (int i = 0; i < 700; ++i) {
    const double half_width = std::exp(rng.uniform(std::log(1e-4), -1.0));
    expect_same_cover(GreatCircleBand{random_unit(rng), half_width},
                      i % (kMaxTestedLevel + 1), i);
  }
}

// Corners and edge midpoints of every trixel at levels 0..4: points on
// shared edges and corners, where the inclusive containment test lets
// several siblings claim a point and only the visiting order decides.
std::vector<Vec3> edge_and_corner_points() {
  std::vector<Vec3> points;
  for (int level = 0; level <= 4; ++level) {
    for (const MeshNode& n : mesh_level(level)) {
      const auto& v = n.vertices;
      for (std::size_t k = 0; k < 3; ++k) {
        points.push_back(v[k]);
        points.push_back(midpoint_on_sphere(v[k], v[(k + 1) % 3]));
      }
    }
  }
  // The octahedron's great circles: the equator and four meridians.
  for (double ra = 0.0; ra < 360.0; ra += 7.5) {
    points.push_back(from_ra_dec(ra, 0.0));
    for (const double meridian : {0.0, 90.0, 180.0, 270.0}) {
      points.push_back(from_ra_dec(meridian, ra / 4.0 - 45.0));
    }
  }
  return points;
}

TEST(HtmMeshTest, LocateMatchesRecursionOnEdgesCornersAndRandomPoints) {
  std::vector<Vec3> points = edge_and_corner_points();
  util::Rng rng{5};
  for (int i = 0; i < 10'000; ++i) points.push_back(random_unit(rng));
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (int level = 0; level <= kMaxTestedLevel; ++level) {
      ASSERT_EQ(locate(points[i], level), oracle::locate(points[i], level))
          << "point " << i << " level " << level;
    }
  }
}

TEST(HtmMeshTest, CoversCentredOnEdgesAndCornersMatchRecursion) {
  const std::vector<Vec3> points = edge_and_corner_points();
  for (std::size_t i = 0; i < points.size(); i += 7) {
    const int level = static_cast<int>(i % (kMaxTestedLevel + 1));
    expect_same_cover(Cone{points[i], 0.0}, level, static_cast<int>(i));
    expect_same_cover(Cone{points[i], 1e-3}, level, static_cast<int>(i));
  }
}

// Covers whose region boundary runs exactly through mesh points, where
// the trig-free cone filter must hand the decision to the exact Cone test
// and the rect tests read the stored (ra, dec) of the very point they
// bound. Each case is checked against the recursion oracle; the returned
// count is last_cover_exact_fallbacks() of the mesh cover.
std::int64_t expect_same_cover_counting(const Region& region, int level,
                                        const char* what, int case_index) {
  const std::vector<HtmId> got = cover_region(region, level);
  const std::int64_t fallbacks = last_cover_exact_fallbacks();
  EXPECT_EQ(got, oracle::cover_region(region, level))
      << what << " case " << case_index << " level " << level;
  return fallbacks;
}

// A random node of `level`.
const MeshNode& random_node(util::Rng& rng, int level) {
  const auto nodes = mesh_level(level);
  return nodes[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
}

// A random unit vector within ~`spread` rad of `p`.
Vec3 near(util::Rng& rng, const Vec3& p, double spread) {
  return normalized(p + random_unit(rng) * rng.uniform(0.0, spread));
}

TEST(HtmMeshTest, ConesThroughMeshPointsMatchRecursionViaTheGuardBand) {
  util::Rng rng{4242};
  std::int64_t through_points = 0;
  std::int64_t bounding_circles = 0;
  std::int64_t scaled = 0;
  int i = 0;
  for (int level = 0; level <= kMaxTestedLevel; ++level) {
    for (int k = 0; k < 60; ++k, ++i) {
      // A corner or centre of a node the descent tests for containment
      // (levels below the target) or as a leaf.
      const MeshNode& n =
          random_node(rng, static_cast<int>(rng.uniform_int(0, level)));
      const std::size_t corner = static_cast<std::size_t>(k % 4);
      const Vec3 point = corner < 3 ? n.vertices[corner] : n.center;
      const Vec3 center = near(rng, point, 0.3);
      const double exact = angular_distance(center, point);
      // The radius whose bounding-circle test at n is a tie.
      const double tangent = angular_distance(center, n.center) -
                             n.bounding_radius;
      for (const double r : {exact, std::nextafter(exact, 0.0),
                             std::nextafter(exact, 4.0)}) {
        through_points += expect_same_cover_counting(Cone{center, r}, level,
                                                     "through point", i);
        scaled += expect_same_cover_counting(Cone{center * 3.0, r}, level,
                                             "scaled centre", i);
      }
      if (tangent < 0.0) continue;
      for (const double r : {tangent, std::nextafter(tangent, 0.0),
                             std::nextafter(tangent, 4.0)}) {
        bounding_circles += expect_same_cover_counting(
            Cone{center, r}, level, "tangent to bounding circle", i);
      }
    }
  }
  EXPECT_GT(through_points, 0);
  EXPECT_GT(bounding_circles, 0);
  EXPECT_GT(scaled, 0);
}

TEST(HtmMeshTest, DegenerateConeRadiiMatchRecursionViaTheGuardBand) {
  util::Rng rng{99};
  std::int64_t tiny = 0;
  std::int64_t unfiltered = 0;
  int i = 0;
  for (int level = 0; level <= kMaxTestedLevel; ++level) {
    for (int k = 0; k < 20; ++k, ++i) {
      // Radii 0 and 1e-12 centred on a mesh corner: every node sharing the
      // corner has a dot product within the guard band of cos r.
      const MeshNode& n =
          random_node(rng, static_cast<int>(rng.uniform_int(0, level)));
      const Vec3 corner = n.vertices[static_cast<std::size_t>(k % 3)];
      for (const double r : {0.0, 1e-12}) {
        tiny += expect_same_cover_counting(Cone{corner, r}, level,
                                           "tiny radius", i);
      }
      // A zero centre: no direction, every point at distance 0.
      unfiltered += expect_same_cover_counting(
          Cone{{0.0, 0.0, 0.0}, 1e-3 * k}, level, "zero centre", i);
      // r + br within 1e-9 of pi for the bounding radius of some node on
      // the path, and radii at and beyond pi or below 0 (no filter).
      const double br =
          random_node(rng, static_cast<int>(rng.uniform_int(0, level)))
              .bounding_radius;
      const Vec3 center = random_unit(rng);
      for (const double r :
           {std::numbers::pi - br - 1e-9, std::numbers::pi - br - 1e-12,
            std::numbers::pi - br, std::numbers::pi - br + 1e-12,
            std::numbers::pi - br + 1e-9, std::numbers::pi - 1e-13,
            std::numbers::pi, 3.5, -1e-3, -1.0}) {
        unfiltered += expect_same_cover_counting(Cone{center, r}, level,
                                                 "radius near pi", i);
      }
    }
  }
  EXPECT_GT(tiny, 0);
  EXPECT_GT(unfiltered, 0);
}

TEST(HtmMeshTest, RectsOnCornerCoordinatesMatchRecursion) {
  util::Rng rng{8};
  const auto node_at = [](double ra, double dec, int level) -> const MeshNode& {
    return mesh_level(level)[static_cast<std::size_t>(
        index_in_level(locate(from_ra_dec(ra, dec), level)))];
  };
  const auto by_ra = [](const RaDec& x, const RaDec& y) {
    return x.ra_deg < y.ra_deg;
  };
  int wrapping = 0;
  int i = 0;
  for (int level = 0; level <= kMaxTestedLevel; ++level) {
    for (int k = 0; k < 60; ++k, ++i) {
      const int node_level = static_cast<int>(rng.uniform_int(1, 4));
      RaDec a;
      RaDec b;
      if (k % 2 == 0) {
        // Two corners of one node.
        const auto& v = random_node(rng, node_level).vertex_ra_dec;
        a = v[static_cast<std::size_t>(k % 3)];
        b = v[static_cast<std::size_t>((k + 1) % 3)];
        if (a.ra_deg > b.ra_deg) std::swap(a.ra_deg, b.ra_deg);
      } else {
        // The easternmost corner of a node west of ra = 0 and the
        // westernmost corner of a node east of it: ra_lo > ra_hi wraps.
        const double dec = rng.uniform(-80.0, 80.0);
        const auto& west =
            node_at(rng.uniform(300.0, 359.0), dec, node_level).vertex_ra_dec;
        const auto& east =
            node_at(rng.uniform(1.0, 60.0), dec, node_level).vertex_ra_dec;
        a = *std::max_element(west.begin(), west.end(), by_ra);
        b = *std::min_element(east.begin(), east.end(), by_ra);
      }
      wrapping += a.ra_deg > b.ra_deg ? 1 : 0;
      const RaDecRect rect{a.ra_deg, b.ra_deg, std::min(a.dec_deg, b.dec_deg),
                           std::max(a.dec_deg, b.dec_deg)};
      // Rect tests have no filter: nothing is left to a fallback.
      EXPECT_EQ(expect_same_cover_counting(rect, level, "rect", i), 0);
    }
  }
  EXPECT_GT(wrapping, 0);
}

// Eight threads race to make the first call at a level nothing else in this
// binary touches (level 7): std::call_once must build it exactly once and
// every thread must see the finished table. Runs under TSan in CI.
TEST(HtmMeshTest, ConcurrentFirstUseOfALevelIsSafeAndDeterministic) {
  constexpr int kLevel = 7;
  constexpr std::size_t kThreads = 8;
  util::Rng rng{11};
  std::vector<Region> regions;
  std::vector<Vec3> points;
  for (int i = 0; i < 16; ++i) {
    regions.push_back(Cone{random_unit(rng), rng.uniform(1e-4, 0.02)});
    points.push_back(random_unit(rng));
  }
  struct Result {
    std::vector<std::vector<HtmId>> covers;
    std::vector<HtmId> located;
    const MeshNode* table = nullptr;
  };
  std::vector<Result> results(kThreads);
  std::latch start{static_cast<std::ptrdiff_t>(kThreads)};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Result& r = results[t];
      start.arrive_and_wait();
      // Alternate which entry point makes the first call.
      if (t % 2 == 0) {
        for (const Region& region : regions) {
          r.covers.push_back(cover_region(region, kLevel));
        }
        for (const Vec3& p : points) r.located.push_back(locate(p, kLevel));
      } else {
        for (const Vec3& p : points) r.located.push_back(locate(p, kLevel));
        for (const Region& region : regions) {
          r.covers.push_back(cover_region(region, kLevel));
        }
      }
      r.table = mesh_level(kLevel).data();
    });
  }
  for (std::thread& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(t);
    EXPECT_EQ(results[t].table, results[0].table);
    ASSERT_EQ(results[t].covers.size(), regions.size());
    for (std::size_t i = 0; i < regions.size(); ++i) {
      EXPECT_EQ(results[t].covers[i], oracle::cover_region(regions[i], kLevel));
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(results[t].located[i], oracle::locate(points[i], kLevel));
    }
  }
}

}  // namespace
}  // namespace delta::htm
