#include "workload/trace_split.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"
#include "util/flat_map.h"
#include "util/thread_pool.h"

namespace delta::workload {

namespace {

/// splitmix64: cheap, well-mixed 64-bit hash so adjacent trixel indices
/// spread over endpoints instead of striping.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The query's locality key: its spatial anchor, or (cover-less) its id —
/// the same key kHashByRegion hashes, so both strategies group identically.
std::uint64_t anchor_key(const Query& q) {
  return q.base_cover.empty()
             ? mix(static_cast<std::uint64_t>(q.id.value()))
             : static_cast<std::uint64_t>(q.base_cover.front());
}

/// kBalancedByLoad: group queries by anchor (the locality unit the hash
/// split preserves), then LPT-pack the anchors onto endpoints by their
/// exact query counts. The makespan guarantee is the standard LPT one —
/// max endpoint load <= mean load + heaviest anchor count — so imbalance
/// is bounded by the anchor granularity, not by hash luck.
std::vector<std::uint32_t> assign_balanced(const Trace& trace,
                                           std::size_t endpoint_count) {
  // One hash probe per query gives each distinct anchor a slot in
  // first-seen order, and counts its queries.
  util::FlatMap<std::uint64_t, std::uint32_t> slot_of;
  std::vector<std::uint64_t> keys;
  std::vector<double> slot_count;
  // Per query: its anchor's slot, rewritten to the slot's endpoint below.
  std::vector<std::uint32_t> assignment(trace.queries.size());
  for (std::size_t i = 0; i < trace.queries.size(); ++i) {
    const std::uint64_t key = anchor_key(trace.queries[i]);
    const auto [s, inserted] =
        slot_of.try_emplace(key, static_cast<std::uint32_t>(keys.size()));
    if (inserted) {
      keys.push_back(key);
      slot_count.push_back(0.0);
    }
    assignment[i] = *s;
    slot_count[*s] += 1.0;
  }
  // Dense anchor ids ordered by key value (deterministic, no hash-map
  // iteration order anywhere): only the distinct keys are sorted.
  std::vector<std::uint32_t> slot_by_rank(keys.size());
  std::iota(slot_by_rank.begin(), slot_by_rank.end(), 0u);
  std::sort(slot_by_rank.begin(), slot_by_rank.end(),
            [&keys](std::uint32_t a, std::uint32_t b) {
              return keys[a] < keys[b];
            });
  std::vector<double> counts(keys.size());
  for (std::size_t r = 0; r < slot_by_rank.size(); ++r) {
    counts[r] = slot_count[slot_by_rank[r]];
  }
  const std::vector<std::vector<std::size_t>> packing =
      util::lpt_assignment(counts, endpoint_count);
  std::vector<std::uint32_t> endpoint_of(keys.size(), 0);
  for (std::size_t e = 0; e < packing.size(); ++e) {
    for (const std::size_t r : packing[e]) {
      endpoint_of[slot_by_rank[r]] = static_cast<std::uint32_t>(e);
    }
  }
  for (std::uint32_t& a : assignment) a = endpoint_of[a];
  return assignment;
}

}  // namespace

std::vector<std::uint32_t> assign_queries(const Trace& trace,
                                          std::size_t endpoint_count,
                                          SplitStrategy strategy) {
  DELTA_CHECK(endpoint_count > 0);
  std::vector<std::uint32_t> assignment(trace.queries.size(), 0);
  if (endpoint_count == 1) return assignment;
  if (strategy == SplitStrategy::kBalancedByLoad) {
    return assign_balanced(trace, endpoint_count);
  }
  const auto n = static_cast<std::uint64_t>(endpoint_count);
  for (std::size_t i = 0; i < trace.queries.size(); ++i) {
    switch (strategy) {
      case SplitStrategy::kRoundRobin:
        assignment[i] = static_cast<std::uint32_t>(i % n);
        break;
      case SplitStrategy::kHashByRegion: {
        const Query& q = trace.queries[i];
        // The region's first base trixel anchors the query spatially; a
        // cover-less query (shouldn't happen in generated traces) falls
        // back to its id so the split stays total.
        const std::uint64_t key =
            q.base_cover.empty()
                ? mix(static_cast<std::uint64_t>(q.id.value()))
                : mix(static_cast<std::uint64_t>(q.base_cover.front()));
        assignment[i] = static_cast<std::uint32_t>(key % n);
        break;
      }
      case SplitStrategy::kBalancedByLoad:
        break;  // handled above
    }
  }
  return assignment;
}

}  // namespace delta::workload
