#include "storage/catalog.h"

#include <cmath>
#include <numbers>

#include "htm/cover.h"
#include "htm/mesh.h"
#include "util/check.h"

namespace delta::storage {

SkyCatalog::SkyCatalog(std::shared_ptr<const htm::PartitionMap> map,
                       const DensityModel& density, Bytes row_bytes)
    : map_(std::move(map)), row_bytes_(row_bytes) {
  DELTA_CHECK(map_ != nullptr);
  DELTA_CHECK(map_->base_level() == density.base_level());
  DELTA_CHECK(row_bytes_.count() > 0);
  const std::vector<double>& rows = density.weights();
  const auto mesh = htm::mesh_level(map_->base_level());
  base_.reserve(rows.size());
  initial_rows_.assign(map_->partition_count(), 0.0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ObjectId o =
        map_->object_for_base_index(static_cast<std::int64_t>(i));
    base_.push_back(
        {rows[i], mesh[i].area, static_cast<std::int32_t>(o.value())});
    initial_rows_[static_cast<std::size_t>(o.value())] += rows[i];
  }
  current_rows_ = initial_rows_;
  versions_.assign(map_->partition_count(), 0);
}

std::size_t SkyCatalog::checked_index(ObjectId id) const {
  DELTA_CHECK(id.valid());
  const auto idx = static_cast<std::size_t>(id.value());
  DELTA_CHECK(idx < current_rows_.size());
  return idx;
}

double SkyCatalog::object_rows(ObjectId id) const {
  return current_rows_[checked_index(id)];
}

Bytes SkyCatalog::object_bytes(ObjectId id) const {
  return Bytes{static_cast<std::int64_t>(object_rows(id) *
                                         row_bytes_.as_double())};
}

Bytes SkyCatalog::total_bytes() const {
  double rows = 0.0;
  for (const double r : current_rows_) rows += r;
  return Bytes{static_cast<std::int64_t>(rows * row_bytes_.as_double())};
}

std::int64_t SkyCatalog::object_version(ObjectId id) const {
  return versions_[checked_index(id)];
}

void SkyCatalog::apply_insert(ObjectId id, double rows) {
  DELTA_CHECK(rows >= 0.0);
  const std::size_t idx = checked_index(id);
  current_rows_[idx] += rows;
  ++versions_[idx];
}

double SkyCatalog::region_area(const htm::Region& region) {
  return std::visit(
      [](const auto& r) -> double {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, htm::Cone>) {
          return 2.0 * std::numbers::pi * (1.0 - std::cos(r.radius_rad));
        } else if constexpr (std::is_same_v<T, htm::RaDecRect>) {
          double dra = r.ra_hi_deg - r.ra_lo_deg;
          if (dra < 0.0) dra += 360.0;
          const double sin_hi =
              std::sin(htm::degrees_to_radians(r.dec_hi_deg));
          const double sin_lo =
              std::sin(htm::degrees_to_radians(r.dec_lo_deg));
          return htm::degrees_to_radians(dra) * (sin_hi - sin_lo);
        } else {
          return 4.0 * std::numbers::pi * std::sin(r.half_width_rad);
        }
      },
      region);
}

double SkyCatalog::initial_object_rows(ObjectId id) const {
  return initial_rows_[checked_index(id)];
}

double SkyCatalog::estimate_rows(const htm::Region& region) const {
  const auto cover = htm::cover_region(region, map_->base_level());
  std::vector<std::int32_t> indices;
  indices.reserve(cover.size());
  for (const htm::HtmId id : cover) {
    indices.push_back(static_cast<std::int32_t>(htm::index_in_level(id)));
  }
  return estimate_rows_with_cover(region, indices);
}

double SkyCatalog::estimate_rows_with_cover(
    const htm::Region& region,
    const std::vector<std::int32_t>& base_indices) const {
  if (base_indices.empty()) return 0.0;
  const double region_sr = region_area(region);
  // Average density over the cover, times the analytic region area: smooth
  // result sizes even for regions smaller than one base trixel.
  double cover_rows = 0.0;
  double cover_area = 0.0;
  for (const std::int32_t idx : base_indices) {
    DELTA_CHECK(idx >= 0 && static_cast<std::size_t>(idx) < base_.size());
    const BaseTrixel& b = base_[static_cast<std::size_t>(idx)];
    const auto oi = static_cast<std::size_t>(b.object);
    const double growth =
        initial_rows_[oi] > 0.0 ? current_rows_[oi] / initial_rows_[oi] : 1.0;
    cover_rows += b.rows * growth;
    cover_area += b.area;
  }
  if (cover_area <= 0.0) return 0.0;
  const double area = std::min(region_sr, cover_area);
  return cover_rows * (area / cover_area);
}

}  // namespace delta::storage
