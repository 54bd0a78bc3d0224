#include "workload/trace_generator.h"

#include <algorithm>
#include <cmath>

#include "htm/cover.h"
#include "util/check.h"

namespace delta::workload {

namespace {

constexpr std::int64_t kMinQueryCostBytes = 1024;
constexpr std::int64_t kMinUpdateCostBytes = 512;

double clamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

}  // namespace

TraceGenerator::TraceGenerator(std::shared_ptr<const htm::PartitionMap> map,
                               const storage::DensityModel& density,
                               TraceParams params)
    : map_(std::move(map)), density_(&density), params_(params) {
  DELTA_CHECK(map_ != nullptr);
  DELTA_CHECK(map_->base_level() == density.base_level());
  DELTA_CHECK(params_.query_count > 0);
  DELTA_CHECK(params_.update_count >= 0);
  DELTA_CHECK(params_.warmup_fraction >= 0.0 && params_.warmup_fraction < 1.0);
}

Trace TraceGenerator::generate(std::uint64_t seed) const {
  // Independent streams: the query stream must be bit-identical across
  // different update counts (Fig. 8a re-uses "the same 250,000 queries").
  util::Rng rng_order{seed ^ 0x9E3779B97F4A7C15ULL};
  util::Rng rng_query{seed ^ 0xC2B2AE3D27D4EB4FULL};
  util::Rng rng_update{seed ^ 0x165667B19E3779F9ULL};

  storage::SkyCatalog catalog{map_, *density_};

  HotspotModel::Params hotspot_params = params_.hotspot;
  if (params_.hotspot_max_object_gb > 0.0) {
    const double max_rows = params_.hotspot_max_object_gb * 1e9 /
                            catalog.row_bytes().as_double();
    hotspot_params.placement_acceptor = [this, &catalog,
                                         max_rows](const htm::Vec3& p) {
      const ObjectId o = map_->object_for_point(p);
      const double rows = catalog.initial_object_rows(o);
      return rows > 0.0 && rows <= max_rows;
    };
  }
  HotspotModel hotspots{hotspot_params, rng_query.fork()};
  ScanModel scans{params_.scan, rng_update.fork()};

  Trace trace;
  trace.info.seed = seed;
  trace.info.base_level = map_->base_level();
  trace.info.row_bytes = catalog.row_bytes();
  trace.queries.reserve(static_cast<std::size_t>(params_.query_count));
  trace.updates.reserve(static_cast<std::size_t>(params_.update_count));
  trace.order.reserve(
      static_cast<std::size_t>(params_.query_count + params_.update_count));

  const auto warmup_query_count = static_cast<std::int64_t>(
      params_.warmup_fraction * static_cast<double>(params_.query_count));

  // Mean non-empty object rows, for density-proportional update sizing.
  double mean_object_rows = 0.0;
  {
    std::int64_t non_empty = 0;
    for (std::size_t i = 0; i < map_->partition_count(); ++i) {
      const double r =
          catalog.initial_object_rows(ObjectId{static_cast<std::int64_t>(i)});
      if (r > 0.0) {
        mean_object_rows += r;
        ++non_empty;
      }
    }
    DELTA_CHECK(non_empty > 0);
    mean_object_rows /= static_cast<double>(non_empty);
  }

  const std::vector<double> template_weights{
      params_.cone_weight, params_.rect_weight, params_.join_weight,
      params_.agg_weight, params_.scan_chunk_weight};

  const auto& density_weights = density_->weights();
  const Bytes row_bytes = catalog.row_bytes();

  std::vector<ObjectId> object_scratch;
  const auto make_query = [&](std::int64_t query_index,
                              EventTime now) -> Query {
    Query q;
    q.id = QueryId{query_index};
    q.time = now;
    for (int attempt = 0; attempt < 64; ++attempt) {
      const htm::Vec3 center = hotspots.sample_query_center(query_index);
      const std::size_t tmpl = rng_query.weighted_index(template_weights);
      htm::Region region;
      double output_fraction = 1.0;
      double fixed_bytes = 0.0;
      switch (tmpl) {
        case 0: {  // cone search
          q.kind = QueryKind::kConeSearch;
          const double r =
              clamp(params_.cone_radius_median_rad *
                        std::exp(rng_query.normal(0, params_.cone_radius_sigma)),
                    0.002, params_.cone_radius_max_rad);
          region = htm::Cone{center, r};
          output_fraction =
              rng_query.uniform(params_.projection_lo, params_.projection_hi);
          break;
        }
        case 1: {  // ra/dec range scan
          q.kind = QueryKind::kRangeRect;
          const htm::RaDec c = htm::to_ra_dec(center);
          const double w =
              clamp(params_.rect_side_median_deg *
                        std::exp(rng_query.normal(0, params_.rect_side_sigma)),
                    0.1, params_.rect_side_max_deg);
          const double h =
              clamp(params_.rect_side_median_deg *
                        std::exp(rng_query.normal(0, params_.rect_side_sigma)),
                    0.1, params_.rect_side_max_deg);
          double ra_lo = std::fmod(c.ra_deg - w / 2.0 + 360.0, 360.0);
          double ra_hi = std::fmod(c.ra_deg + w / 2.0, 360.0);
          const double dec_lo = clamp(c.dec_deg - h / 2.0, -89.9, 89.9);
          const double dec_hi = clamp(c.dec_deg + h / 2.0, dec_lo, 89.9);
          region = htm::RaDecRect{ra_lo, ra_hi, dec_lo, dec_hi};
          output_fraction =
              rng_query.uniform(params_.projection_lo, params_.projection_hi);
          break;
        }
        case 2: {  // spatial self-join in a small neighbourhood
          q.kind = QueryKind::kSelfJoin;
          const double r = clamp(
              0.5 * params_.cone_radius_median_rad *
                  std::exp(rng_query.normal(0, params_.cone_radius_sigma)),
              0.002, 0.04);
          region = htm::Cone{center, r};
          output_fraction = rng_query.uniform(params_.join_output_lo,
                                              params_.join_output_hi);
          break;
        }
        case 3: {  // aggregation: output size independent of rows scanned
          q.kind = QueryKind::kAggregation;
          const double r =
              clamp(params_.cone_radius_median_rad *
                        std::exp(rng_query.normal(0, params_.cone_radius_sigma)),
                    0.002, params_.cone_radius_max_rad);
          region = htm::Cone{center, r};
          output_fraction = 0.0;
          fixed_bytes =
              rng_query.uniform(params_.agg_bytes_lo, params_.agg_bytes_hi);
          break;
        }
        default: {  // consecutive full-sky-scan chunk
          q.kind = QueryKind::kScanChunk;
          const htm::RaDec c = htm::to_ra_dec(center);
          const double w = rng_query.uniform(params_.scan_chunk_ra_lo_deg,
                                             params_.scan_chunk_ra_hi_deg);
          const double h = rng_query.uniform(params_.scan_chunk_dec_lo_deg,
                                             params_.scan_chunk_dec_hi_deg);
          const double ra_lo = std::fmod(c.ra_deg - w / 2.0 + 360.0, 360.0);
          const double ra_hi = std::fmod(c.ra_deg + w / 2.0, 360.0);
          const double dec_lo = clamp(c.dec_deg - h / 2.0, -89.9, 89.9);
          const double dec_hi = clamp(c.dec_deg + h / 2.0, dec_lo, 89.9);
          region = htm::RaDecRect{ra_lo, ra_hi, dec_lo, dec_hi};
          output_fraction = rng_query.uniform(0.005, 0.05);
          break;
        }
      }

      // Base cover restricted to trixels that actually hold data.
      const auto cover = htm::cover_region(region, map_->base_level());
      std::vector<std::int32_t> base_cover;
      base_cover.reserve(cover.size());
      for (const htm::HtmId id : cover) {
        const auto idx = static_cast<std::int32_t>(htm::index_in_level(id));
        if (density_weights[static_cast<std::size_t>(idx)] > 0.0) {
          base_cover.push_back(idx);
        }
      }
      if (base_cover.empty()) continue;  // fell outside the survey: retry

      const double rows = catalog.estimate_rows_with_cover(region, base_cover);
      double bytes = rows * row_bytes.as_double() * output_fraction +
                     fixed_bytes;

      // Warm-up ramp: early queries are cheap, so the cache stays nearly
      // empty through the early warm-up (the paper's trace property);
      // full-sized queries in the warm-up tail let loading finish before
      // the measurement window opens.
      if (query_index < warmup_query_count && warmup_query_count > 0) {
        const double x = static_cast<double>(query_index) /
                         static_cast<double>(warmup_query_count);
        const double ramp =
            std::min(1.0, x / std::max(params_.warmup_ramp_end, 1e-9));
        bytes *= std::pow(params_.warmup_floor, 1.0 - ramp);
      }

      q.region = region;
      q.base_cover = std::move(base_cover);
      objects_of_cover(*map_, q.base_cover, object_scratch, q.objects);
      q.cost = Bytes{std::max<std::int64_t>(
          static_cast<std::int64_t>(bytes), kMinQueryCostBytes)};

      // Staleness tolerance mixture.
      const double roll = rng_query.next_double();
      if (roll < params_.strict_fraction) {
        q.staleness_tolerance = 0;
      } else if (roll < params_.strict_fraction + params_.moderate_fraction) {
        q.staleness_tolerance = rng_query.uniform_int(
            params_.moderate_tolerance_lo, params_.moderate_tolerance_hi);
      } else {
        q.staleness_tolerance = rng_query.uniform_int(
            params_.loose_tolerance_lo, params_.loose_tolerance_hi);
      }
      return q;
    }
    DELTA_CHECK_MSG(false, "could not place a query inside the survey");
    return q;  // unreachable
  };

  const auto make_update = [&](std::int64_t update_index,
                               EventTime now) -> Update {
    Update u;
    u.id = UpdateId{update_index};
    u.time = now;
    for (int attempt = 0; attempt < 4096; ++attempt) {
      const htm::Vec3 pos = scans.next_position();
      const htm::HtmId trixel = htm::locate(pos, map_->base_level());
      const auto idx = static_cast<std::int32_t>(htm::index_in_level(trixel));
      if (density_weights[static_cast<std::size_t>(idx)] <= 0.0) {
        continue;  // scan walked over a dataless sliver: keep walking
      }
      u.position = pos;
      u.base_index = idx;
      u.object = map_->object_for_base_index(idx);
      const double density_factor =
          clamp(std::pow(catalog.initial_object_rows(u.object) /
                             mean_object_rows,
                         params_.update_density_exponent),
                0.05, 10.0);
      const double rows =
          std::max(1.0, params_.update_rows_base * density_factor *
                            std::exp(rng_update.normal(
                                0, params_.update_rows_sigma)));
      u.rows = rows;
      u.cost = Bytes{std::max<std::int64_t>(
          static_cast<std::int64_t>(rows * row_bytes.as_double()),
          kMinUpdateCostBytes)};
      catalog.apply_insert(u.object, rows);
      return u;
    }
    DELTA_CHECK_MSG(false, "scan never crossed the survey footprint");
    return u;  // unreachable
  };

  // Merged sequence: query blocks alternating with nightly update bursts,
  // sized so both streams exhaust together.
  const double mean_update_burst =
      params_.update_count > 0
          ? params_.mean_query_block *
                (static_cast<double>(params_.update_count) /
                 static_cast<double>(params_.query_count))
          : 0.0;

  std::int64_t qi = 0;
  std::int64_t ui = 0;
  EventTime now = 0;
  trace.info.warmup_end_event = 0;
  while (qi < params_.query_count || ui < params_.update_count) {
    if (qi < params_.query_count) {
      const auto block = std::min<std::int64_t>(
          params_.query_count - qi,
          1 + static_cast<std::int64_t>(
                  rng_order.exponential(params_.mean_query_block)));
      for (std::int64_t k = 0; k < block; ++k) {
        if (qi == warmup_query_count) trace.info.warmup_end_event = now;
        trace.queries.push_back(make_query(qi, now));
        trace.order.push_back(Event::query(qi));
        ++qi;
        ++now;
      }
    }
    if (ui < params_.update_count) {
      scans.begin_night();
      const auto burst = std::min<std::int64_t>(
          params_.update_count - ui,
          1 + static_cast<std::int64_t>(
                  rng_order.exponential(std::max(1.0, mean_update_burst))));
      for (std::int64_t k = 0; k < burst; ++k) {
        trace.updates.push_back(make_update(ui, now));
        trace.order.push_back(Event::update(ui));
        ++ui;
        ++now;
      }
    }
  }

  // ---- Calibration to the paper's magnitudes ----
  const EventTime warmup_end = trace.info.warmup_end_event;
  double post_query_bytes = 0.0;
  for (const Query& q : trace.queries) {
    if (q.time >= warmup_end) post_query_bytes += q.cost.as_double();
  }
  if (post_query_bytes > 0.0 && params_.postwarmup_query_gb > 0.0) {
    const double fq =
        params_.postwarmup_query_gb * 1e9 / post_query_bytes;
    for (Query& q : trace.queries) {
      q.cost = Bytes{std::max<std::int64_t>(
          static_cast<std::int64_t>(q.cost.as_double() * fq),
          kMinQueryCostBytes)};
    }
  }
  double post_update_bytes = 0.0;
  std::int64_t post_update_count = 0;
  for (const Update& u : trace.updates) {
    if (u.time >= warmup_end) {
      post_update_bytes += u.cost.as_double();
      ++post_update_count;
    }
  }
  if (post_update_bytes > 0.0 && params_.mean_postwarmup_update_mb > 0.0) {
    const double fu = params_.mean_postwarmup_update_mb * 1e6 *
                      static_cast<double>(post_update_count) /
                      post_update_bytes;
    for (Update& u : trace.updates) {
      u.cost = Bytes{std::max<std::int64_t>(
          static_cast<std::int64_t>(u.cost.as_double() * fu),
          kMinUpdateCostBytes)};
      u.rows = std::max(1.0, u.rows * fu);
    }
  }

  // Initial object sizes (pre-growth repository state).
  trace.initial_object_bytes.assign(map_->partition_count(), Bytes{});
  for (std::size_t i = 0; i < map_->partition_count(); ++i) {
    const ObjectId oid{static_cast<std::int64_t>(i)};
    trace.initial_object_bytes[i] = Bytes{static_cast<std::int64_t>(
        catalog.initial_object_rows(oid) * row_bytes.as_double())};
  }
  trace.info.partition_count = map_->partition_count();

  trace.validate();
  return trace;
}

}  // namespace delta::workload
