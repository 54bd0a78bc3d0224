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
