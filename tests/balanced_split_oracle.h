// Test oracle: the sort + lower_bound kBalancedByLoad split. It ranks every
// query's anchor key by binary search over the sorted distinct keys.
// workload::assign_queries ranks only the distinct keys and finds each
// query's anchor by one hash probe instead; both must return exactly the
// same assignment for every trace and endpoint count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/thread_pool.h"
#include "workload/trace.h"

namespace delta::workload::oracle {

namespace detail {

inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The query's spatial anchor, or (cover-less) its mixed id.
inline std::uint64_t anchor_key(const Query& q) {
  return q.base_cover.empty()
             ? mix(static_cast<std::uint64_t>(q.id.value()))
             : static_cast<std::uint64_t>(q.base_cover.front());
}

}  // namespace detail

/// Reference kBalancedByLoad split: dense anchor ids ordered by key value,
/// LPT-packed by exact query counts.
inline std::vector<std::uint32_t> assign_balanced(const Trace& trace,
                                                  std::size_t endpoint_count) {
  std::vector<std::uint64_t> keys(trace.queries.size());
  for (std::size_t i = 0; i < trace.queries.size(); ++i) {
    keys[i] = detail::anchor_key(trace.queries[i]);
  }
  std::vector<std::uint64_t> distinct = keys;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  std::vector<double> counts(distinct.size(), 0.0);
  std::vector<std::size_t> anchor_id(trace.queries.size(), 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto it =
        std::lower_bound(distinct.begin(), distinct.end(), keys[i]);
    anchor_id[i] = static_cast<std::size_t>(it - distinct.begin());
    counts[anchor_id[i]] += 1.0;
  }
  const std::vector<std::vector<std::size_t>> packing =
      util::lpt_assignment(counts, endpoint_count);
  std::vector<std::uint32_t> endpoint_of(distinct.size(), 0);
  for (std::size_t e = 0; e < packing.size(); ++e) {
    for (const std::size_t a : packing[e]) {
      endpoint_of[a] = static_cast<std::uint32_t>(e);
    }
  }
  std::vector<std::uint32_t> assignment(trace.queries.size(), 0);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    assignment[i] = endpoint_of[anchor_id[i]];
  }
  return assignment;
}

}  // namespace delta::workload::oracle
