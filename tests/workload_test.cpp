#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "htm/partition_map.h"
#include "storage/density_model.h"
#include "trace_builder.h"
#include "workload/hotspot_model.h"
#include "workload/scan_model.h"
#include "workload/trace_generator.h"
#include "workload/trace_io.h"
#include "workload/workload_stats.h"

namespace delta::workload {
namespace {

constexpr int kLevel = 4;

struct Fixture {
  std::shared_ptr<storage::DensityModel> density;
  std::shared_ptr<const htm::PartitionMap> map;
  TraceParams params;

  explicit Fixture(std::size_t objects = 30) {
    density = std::make_shared<storage::DensityModel>(kLevel, 17);
    density->scale_to_total_rows(4e7);
    map = std::make_shared<htm::PartitionMap>(
        htm::PartitionMap::build(kLevel, density->weights(), objects));
    params.query_count = 4000;
    params.update_count = 4000;
    params.postwarmup_query_gb = 12.0;
    params.mean_postwarmup_update_mb = 2.0;
  }

  [[nodiscard]] Trace make(std::uint64_t seed = 1) const {
    return TraceGenerator{map, *density, params}.generate(seed);
  }
};

TEST(HotspotModelTest, ClustersRelocateOverTime) {
  HotspotModel::Params p;
  p.mean_dwell_events = 500.0;
  HotspotModel model{p, util::Rng{3}};
  for (EventTime t = 0; t < 20000; t += 10) {
    (void)model.sample_query_center(t);
  }
  EXPECT_GT(model.relocation_count(), 10);
}

TEST(HotspotModelTest, CentersStayInFootprint) {
  HotspotModel::Params p;
  HotspotModel model{p, util::Rng{4}};
  for (EventTime t = 0; t < 5000; ++t) {
    const htm::Vec3 c = model.sample_query_center(t);
    EXPECT_LE(htm::angular_distance(c, p.footprint_center),
              p.footprint_radius_rad + 1e-9);
  }
}

TEST(ScanModelTest, PositionsStayInFootprintAndAreClustered) {
  ScanModel::Params p;
  ScanModel scan{p, util::Rng{5}};
  htm::Vec3 prev = scan.next_position();
  double total_step = 0.0;
  for (int i = 0; i < 500; ++i) {
    const htm::Vec3 cur = scan.next_position();
    EXPECT_LE(htm::angular_distance(cur, p.footprint_center),
              p.footprint_radius_rad + 1e-9);
    total_step += htm::angular_distance(prev, cur);
    prev = cur;
  }
  // Consecutive positions along a night's scan are close (clustered
  // updates): mean step far below random-point separation (~1 rad).
  EXPECT_LT(total_step / 500.0, 0.1);
}

TEST(TraceGeneratorTest, ProducesRequestedCounts) {
  const Fixture f;
  const Trace t = f.make();
  EXPECT_EQ(t.queries.size(), 4000u);
  EXPECT_EQ(t.updates.size(), 4000u);
  EXPECT_EQ(t.order.size(), 8000u);
  // validate() ran inside generate(); spot-check key invariants anyway.
  EXPECT_GT(t.info.warmup_end_event, 0);
  EXPECT_LT(t.info.warmup_end_event, t.event_count());
}

TEST(TraceGeneratorTest, DeterministicForSeed) {
  const Fixture f;
  const Trace a = f.make(42);
  const Trace b = f.make(42);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].cost, b.queries[i].cost);
    EXPECT_EQ(a.queries[i].objects, b.queries[i].objects);
    EXPECT_EQ(a.queries[i].staleness_tolerance,
              b.queries[i].staleness_tolerance);
  }
  for (std::size_t i = 0; i < a.updates.size(); ++i) {
    EXPECT_EQ(a.updates[i].cost, b.updates[i].cost);
    EXPECT_EQ(a.updates[i].object, b.updates[i].object);
  }
}

TEST(TraceGeneratorTest, DifferentSeedsDiffer) {
  const Fixture f;
  const Trace a = f.make(1);
  const Trace b = f.make(2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.queries.size() && !any_diff; ++i) {
    any_diff = a.queries[i].cost != b.queries[i].cost;
  }
  EXPECT_TRUE(any_diff);
}

TEST(TraceGeneratorTest, CalibrationHitsTargets) {
  const Fixture f;
  const Trace t = f.make(7);
  const Bytes post_q = t.total_query_cost(t.info.warmup_end_event);
  // Clamping at the minimum cost can only push the total slightly above.
  EXPECT_NEAR(post_q.as_double(), 12e9, 12e9 * 0.02);
  Bytes post_u;
  std::int64_t post_u_count = 0;
  for (const Update& u : t.updates) {
    if (u.time >= t.info.warmup_end_event) {
      post_u += u.cost;
      ++post_u_count;
    }
  }
  ASSERT_GT(post_u_count, 0);
  EXPECT_NEAR(post_u.as_double() / static_cast<double>(post_u_count), 2e6,
              2e6 * 0.02);
}

TEST(TraceGeneratorTest, WarmupQueriesAreCheap) {
  const Fixture f;
  const Trace t = f.make(8);
  const Bytes pre = t.total_query_cost(0) -
                    t.total_query_cost(t.info.warmup_end_event);
  const Bytes post = t.total_query_cost(t.info.warmup_end_event);
  // Same number of queries in each half, but the warm-up half is cheaper
  // overall (sizes ramp from warmup_floor to full scale within it).
  EXPECT_LT(pre.as_double(), post.as_double());
  // The ramp itself: the first 10% of queries is far cheaper than an
  // equally sized slice of full-scale queries at the end of the warm-up.
  const auto q_at = [&](double frac) {
    return t.queries[static_cast<std::size_t>(
        frac * static_cast<double>(t.queries.size() - 1))];
  };
  double early = 0.0;
  double late = 0.0;
  const std::size_t slice = t.queries.size() / 10;
  for (std::size_t i = 0; i < slice; ++i) {
    early += t.queries[i].cost.as_double();
    late += t.queries[static_cast<std::size_t>(
                          q_at(0.45).id.value()) -
                      i]
                .cost.as_double();
  }
  EXPECT_LT(early, late * 0.25);
}

TEST(TraceGeneratorTest, QueryStreamIndependentOfUpdateCount) {
  Fixture f;
  const Trace base = f.make(5);
  f.params.update_count = 1000;  // fewer updates, same queries
  const Trace fewer = f.make(5);
  ASSERT_EQ(base.queries.size(), fewer.queries.size());
  for (std::size_t i = 0; i < base.queries.size(); i += 97) {
    EXPECT_EQ(base.queries[i].objects, fewer.queries[i].objects) << i;
    EXPECT_EQ(base.queries[i].base_cover, fewer.queries[i].base_cover) << i;
  }
}

TEST(TraceGeneratorTest, UpdatesTargetNonEmptyObjects) {
  const Fixture f;
  const Trace t = f.make(9);
  for (const Update& u : t.updates) {
    EXPECT_GT(
        t.initial_object_bytes[static_cast<std::size_t>(u.object.value())]
            .count(),
        0);
  }
}

TEST(TraceGeneratorTest, MultiObjectQueriesExist) {
  const Fixture f;
  const Trace t = f.make(10);
  std::size_t multi = 0;
  for (const Query& q : t.queries) {
    if (q.objects.size() > 1) ++multi;
  }
  // The decoupling problem is only "general" with multi-object queries.
  EXPECT_GT(multi, t.queries.size() / 20);
}

TEST(TraceGeneratorTest, RemapPreservesCostsAndCoversObjects) {
  Fixture f;
  Trace t = f.make(11);
  const auto costs_before = [&] {
    std::vector<Bytes> v;
    for (const Query& q : t.queries) v.push_back(q.cost);
    return v;
  }();

  const auto finer = std::make_shared<htm::PartitionMap>(
      htm::PartitionMap::build(kLevel, f.density->weights(), 90));
  t.remap(*finer);
  t.validate();
  EXPECT_EQ(t.info.partition_count, finer->partition_count());
  for (std::size_t i = 0; i < t.queries.size(); ++i) {
    EXPECT_EQ(t.queries[i].cost, costs_before[i]);
  }
  // Finer partitions: queries touch at least as many objects on average.
  // (Spot-check via totals.)
  std::size_t total_objects = 0;
  for (const Query& q : t.queries) total_objects += q.objects.size();
  EXPECT_GT(total_objects, t.queries.size());
}

TEST(TraceIoTest, RoundTripsExactly) {
  Fixture f;
  f.params.query_count = 300;
  f.params.update_count = 300;
  const Trace t = f.make(12);
  std::stringstream ss;
  write_trace(ss, t);
  const Trace r = read_trace(ss);
  ASSERT_EQ(r.queries.size(), t.queries.size());
  ASSERT_EQ(r.updates.size(), t.updates.size());
  ASSERT_EQ(r.order.size(), t.order.size());
  for (std::size_t i = 0; i < t.queries.size(); ++i) {
    EXPECT_EQ(r.queries[i].id, t.queries[i].id);
    EXPECT_EQ(r.queries[i].time, t.queries[i].time);
    EXPECT_EQ(r.queries[i].kind, t.queries[i].kind);
    EXPECT_EQ(r.queries[i].cost, t.queries[i].cost);
    EXPECT_EQ(r.queries[i].staleness_tolerance,
              t.queries[i].staleness_tolerance);
    EXPECT_EQ(r.queries[i].base_cover, t.queries[i].base_cover);
    EXPECT_EQ(r.queries[i].objects, t.queries[i].objects);
  }
  for (std::size_t i = 0; i < t.updates.size(); ++i) {
    EXPECT_EQ(r.updates[i].id, t.updates[i].id);
    EXPECT_EQ(r.updates[i].time, t.updates[i].time);
    EXPECT_EQ(r.updates[i].object, t.updates[i].object);
    EXPECT_EQ(r.updates[i].cost, t.updates[i].cost);
    EXPECT_EQ(r.updates[i].base_index, t.updates[i].base_index);
  }
  for (std::size_t i = 0; i < t.order.size(); ++i) {
    EXPECT_EQ(r.order[i].kind, t.order[i].kind);
    EXPECT_EQ(r.order[i].index, t.order[i].index);
  }
  EXPECT_EQ(r.initial_object_bytes, t.initial_object_bytes);
}

// A trace file may name an object twice in one query (the generators never
// do); read_trace must reject it rather than let a policy propose or count
// the object twice.
TEST(TraceIoTest, RejectsRepeatedObjectInAQuery) {
  const auto round_trip = [](std::vector<std::int64_t> objects) {
    const Trace t = delta::testing::TraceBuilder{{100, 100, 100, 100}}
                        .query(std::move(objects), 50)
                        .build();
    std::stringstream ss;
    write_trace(ss, t);
    return ss.str();
  };
  const std::string repeated = round_trip({3, 3});
  ASSERT_NE(repeated.find("objects 3 3\n"), std::string::npos);
  std::istringstream bad{repeated};
  EXPECT_THROW((void)read_trace(bad), std::logic_error);
  std::istringstream good{round_trip({2, 3})};
  EXPECT_EQ(read_trace(good).queries.at(0).objects.size(), 2u);
}

TEST(WorkloadStatsTest, HotspotsAreConcentratedAndDecoupled) {
  Fixture f{60};
  f.params.query_count = 8000;
  f.params.update_count = 8000;
  const Trace t = f.make(13);
  const auto stats = WorkloadStats::compute(t, t.info.warmup_end_event);
  // Query traffic concentrates on a minority of objects.
  EXPECT_GT(stats.query_concentration(12), 0.5);
  // Query hotspots and update hotspots only partially overlap — the
  // precondition that makes decoupling profitable (Fig. 7a).
  EXPECT_LT(stats.hotspot_overlap(10), 0.75);
}

TEST(WorkloadStatsTest, ScatterSamplesMatchTrace) {
  Fixture f;
  f.params.query_count = 500;
  f.params.update_count = 500;
  const Trace t = f.make(14);
  const auto pts = sample_scatter(t, 10);
  ASSERT_FALSE(pts.empty());
  for (const auto& p : pts) {
    EXPECT_GE(p.time, 0);
    EXPECT_LT(p.time, t.event_count());
    EXPECT_TRUE(p.object.valid());
  }
}

}  // namespace
}  // namespace delta::workload
