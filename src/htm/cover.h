// Region -> trixel covers: the pre-processing step (§4 Discussion, §6.1)
// that maps a query's spatial specification to the set of data objects it
// accesses, B(q).
#pragma once

#include <vector>

#include "htm/region.h"
#include "htm/trixel.h"

namespace delta::htm {

/// Computes the trixels at `level` that (conservatively) intersect the
/// region. The cover errs toward inclusion: a trixel is included unless its
/// bounding circle provably misses the region, so B(q) never silently drops
/// an object the query touches.
///
/// The descent reads trixel geometry from the precomputed mesh
/// (htm/mesh.h), so 0 <= level <= kMaxMeshLevel (8). Returned ids are sorted
/// and unique.
std::vector<HtmId> cover_region(const Region& region, int level);

/// Statistics hook: number of trixel nodes visited by the last cover call
/// on this thread (micro-benchmark instrumentation).
std::int64_t last_cover_nodes_visited();

}  // namespace delta::htm
