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
///
/// The anchor reads and counts run as contiguous blocks of the queries;
/// only the distinct anchors are merged and ranked serially. Anchors are
/// ranked by key value, never by first-seen order, so the assignment is
/// the same for any block count.
std::vector<std::uint32_t> assign_balanced(const Trace& trace,
                                           std::size_t endpoint_count,
                                           std::size_t blocks) {
  // One block's anchors: each distinct key gets a block-local slot in
  // first-seen order, with its query count. `endpoint_of` maps the slots
  // to global slots after the merge, then to endpoints.
  struct BlockAnchors {
    util::FlatMap<std::uint64_t, std::uint32_t> slot_of;
    std::vector<std::uint64_t> keys;
    std::vector<double> counts;
    std::vector<std::uint32_t> endpoint_of;
  };
  std::vector<BlockAnchors> parts(blocks);
  // Per query: its anchor's block-local slot, rewritten to the slot's
  // endpoint below.
  std::vector<std::uint32_t> assignment(trace.queries.size());
  util::parallel_for_blocks(
      trace.queries.size(), blocks,
      [&](std::size_t b, std::size_t begin, std::size_t end) {
        BlockAnchors& part = parts[b];
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint64_t key = anchor_key(trace.queries[i]);
          const auto [s, inserted] = part.slot_of.try_emplace(
              key, static_cast<std::uint32_t>(part.keys.size()));
          if (inserted) {
            part.keys.push_back(key);
            part.counts.push_back(0.0);
          }
          assignment[i] = *s;
          part.counts[*s] += 1.0;
        }
      });
  // Merge the blocks' distinct anchors into global slots.
  util::FlatMap<std::uint64_t, std::uint32_t> slot_of;
  std::vector<std::uint64_t> keys;
  std::vector<double> slot_count;
  for (BlockAnchors& part : parts) {
    part.endpoint_of.resize(part.keys.size());
    for (std::size_t s = 0; s < part.keys.size(); ++s) {
      const auto [global, inserted] = slot_of.try_emplace(
          part.keys[s], static_cast<std::uint32_t>(keys.size()));
      if (inserted) {
        keys.push_back(part.keys[s]);
        slot_count.push_back(0.0);
      }
      part.endpoint_of[s] = *global;
      slot_count[*global] += part.counts[s];
    }
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
  for (BlockAnchors& part : parts) {
    for (std::uint32_t& slot : part.endpoint_of) slot = endpoint_of[slot];
  }
  util::parallel_for_blocks(
      trace.queries.size(), blocks,
      [&](std::size_t b, std::size_t begin, std::size_t end) {
        const std::vector<std::uint32_t>& table = parts[b].endpoint_of;
        for (std::size_t i = begin; i < end; ++i) {
          assignment[i] = table[assignment[i]];
        }
      });
  return assignment;
}

}  // namespace

std::vector<std::uint32_t> assign_queries(const Trace& trace,
                                          std::size_t endpoint_count,
                                          SplitStrategy strategy,
                                          std::size_t threads) {
  DELTA_CHECK(endpoint_count > 0);
  DELTA_CHECK(threads > 0);
  if (endpoint_count == 1) {
    return std::vector<std::uint32_t>(trace.queries.size(), 0);
  }
  const std::size_t blocks = util::block_count(trace.queries.size(), threads);
  if (strategy == SplitStrategy::kBalancedByLoad) {
    return assign_balanced(trace, endpoint_count, blocks);
  }
  std::vector<std::uint32_t> assignment(trace.queries.size());
  const auto n = static_cast<std::uint64_t>(endpoint_count);
  util::parallel_for_blocks(
      trace.queries.size(), blocks,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          switch (strategy) {
            case SplitStrategy::kRoundRobin:
              assignment[i] = static_cast<std::uint32_t>(i % n);
              break;
            case SplitStrategy::kHashByRegion: {
              const Query& q = trace.queries[i];
              // The region's first base trixel anchors the query
              // spatially; a cover-less query (shouldn't happen in
              // generated traces) falls back to its id so the split stays
              // total.
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
      });
  return assignment;
}

}  // namespace delta::workload
