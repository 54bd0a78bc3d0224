// SkyCatalog: the repository's partitioned data store.
//
// The catalog owns the mapping from spatial partitions (data objects) to
// their current row counts and byte sizes, applies the growth caused by
// update shipping (§3: updates predominantly insert data; data is never
// deleted), and estimates query-result row counts for cost accounting.
#pragma once

#include <memory>
#include <vector>

#include "htm/partition_map.h"
#include "storage/density_model.h"
#include "storage/record.h"
#include "util/types.h"

namespace delta::storage {

class SkyCatalog {
 public:
  /// Builds a catalog over `map`, distributing `density`'s rows across
  /// partitions. `row_bytes` converts rows to network/storage bytes.
  SkyCatalog(std::shared_ptr<const htm::PartitionMap> map,
             const DensityModel& density, Bytes row_bytes = kModeledRowBytes);

  [[nodiscard]] const htm::PartitionMap& partition_map() const {
    return *map_;
  }
  [[nodiscard]] std::shared_ptr<const htm::PartitionMap> partition_map_ptr()
      const {
    return map_;
  }

  [[nodiscard]] std::size_t partition_count() const {
    return map_->partition_count();
  }
  [[nodiscard]] Bytes row_bytes() const { return row_bytes_; }

  [[nodiscard]] double object_rows(ObjectId id) const;
  [[nodiscard]] Bytes object_bytes(ObjectId id) const;
  [[nodiscard]] Bytes total_bytes() const;

  /// Monotone per-object version; bumped by every applied insert.
  [[nodiscard]] std::int64_t object_version(ObjectId id) const;

  /// Applies an insert of `rows` rows to the object (a shipped update).
  void apply_insert(ObjectId id, double rows);

  /// Rows the object held at build time (before any applied inserts).
  [[nodiscard]] double initial_object_rows(ObjectId id) const;

  /// Estimated number of rows a query over `region` scans, from the density
  /// map and region area (accounts for per-object growth since build time).
  [[nodiscard]] double estimate_rows(const htm::Region& region) const;

  /// As estimate_rows, but reusing a precomputed base-trixel cover
  /// (base-level indices in index_in_level order) — the trace generator
  /// computes each query's cover exactly once.
  [[nodiscard]] double estimate_rows_with_cover(
      const htm::Region& region,
      const std::vector<std::int32_t>& base_indices) const;

  /// Analytic area (steradians) of a region; exposed for workload sizing.
  [[nodiscard]] static double region_area(const htm::Region& region);

 private:
  std::shared_ptr<const htm::PartitionMap> map_;
  Bytes row_bytes_;
  struct BaseTrixel {
    double rows;          // at build time
    double area;          // steradians, from the HTM mesh
    std::int32_t object;  // owning partition
  };
  std::vector<BaseTrixel> base_;        // per base trixel (index_in_level)
  std::vector<double> initial_rows_;    // per object
  std::vector<double> current_rows_;    // per object (grows with inserts)
  std::vector<std::int64_t> versions_;  // per object

  [[nodiscard]] std::size_t checked_index(ObjectId id) const;
};

}  // namespace delta::storage
