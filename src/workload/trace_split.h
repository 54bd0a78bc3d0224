// Trace splitting for multi-endpoint deployments: assigns every query of a
// trace to one of N cache endpoints. Updates are not split — they arrive at
// the shared repository, which fans invalidations out to the subscribed
// caches (see core::ServerNode).
//
// Three strategies:
//   * kRoundRobin     — queries are dealt to endpoints in arrival order;
//                       an even load-balance baseline with no locality.
//   * kHashByRegion   — queries hash by their spatial anchor (the first
//                       base-level trixel of the region's cover), so
//                       queries over the same sky region land on the same
//                       endpoint and its cache can specialize. This is the
//                       sharding mode the ROADMAP's scale-out targets.
//   * kBalancedByLoad — anchors keep the hash split's locality (all
//                       queries sharing an anchor land together), but
//                       anchors are packed onto endpoints by LPT bin
//                       packing of their exact query counts instead of by
//                       hash, so the heaviest endpoint carries as close to
//                       the mean load as the anchor granularity permits.
//                       This is the split that closes the parallel
//                       engine's critical-path gap at large N.
// All are deterministic functions of the trace, so multi-endpoint runs
// stay exactly reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "workload/trace.h"

namespace delta::workload {

enum class SplitStrategy : std::uint8_t {
  kRoundRobin,
  kHashByRegion,
  kBalancedByLoad,
};

[[nodiscard]] constexpr const char* to_string(SplitStrategy strategy) {
  switch (strategy) {
    case SplitStrategy::kRoundRobin:
      return "round_robin";
    case SplitStrategy::kHashByRegion:
      return "hash_by_region";
    case SplitStrategy::kBalancedByLoad:
      return "balanced_by_load";
  }
  return "?";
}

/// Endpoint index (< endpoint_count) per query, indexed like Trace::queries.
/// The pass over the queries runs as contiguous blocks on up to `threads`
/// threads (util::block_count: one thread or a short trace splits inline);
/// the assignment is the same for every thread count.
[[nodiscard]] std::vector<std::uint32_t> assign_queries(
    const Trace& trace, std::size_t endpoint_count, SplitStrategy strategy,
    std::size_t threads = 1);

}  // namespace delta::workload
