// Parallel simulation tests: the headline guarantee (any thread count
// reproduces the single-threaded run's RunResults bit-for-bit), the
// repeated-run determinism of multi-threaded runs, and the accounting
// invariants on their results.
#include <gtest/gtest.h>

#include <string>

#include "meter_invariants.h"
#include "result_identity.h"
#include "sim/experiment.h"
#include "sim/multi_cache.h"
#include "workload/trace_split.h"

namespace delta::sim {
namespace {

using World = Setup;  // ::testing::Test::Setup shadows sim::Setup in TESTs

SetupParams small_params(std::uint64_t seed = 21) {
  SetupParams p;
  p.base_level = 4;
  p.total_rows = 4e7;
  p.object_target = 30;
  p.trace_seed = seed;
  p.trace.query_count = 2000;
  p.trace.update_count = 2000;
  p.trace.postwarmup_query_gb = 8.0;
  p.trace.mean_postwarmup_update_mb = 2.0;
  p.trace.hotspot_max_object_gb = 1.0;
  p.benefit_window = 500;
  return p;
}

using delta::testing::ExpectIdentical;

// The acceptance guarantee: for T ∈ {2, 4, 8} the output is byte-identical
// to the T=1 run, per endpoint and combined, across policies and split
// strategies.
TEST(ParallelSimTest, ByteIdenticalToSequentialAcrossThreadCounts) {
  const World setup{small_params()};
  for (const PolicyKind kind :
       {PolicyKind::kVCover, PolicyKind::kBenefit, PolicyKind::kSOptimal}) {
    for (const auto strategy : {workload::SplitStrategy::kRoundRobin,
                                workload::SplitStrategy::kHashByRegion}) {
      const MultiRunResult sequential = run_one_multi(
          kind, setup.trace(), setup.cache_capacity(), setup.params(), 4,
          strategy, PolicyOverrides{}, 2000, ParallelOptions{1});
      for (const std::size_t threads : {2u, 4u, 8u}) {
        const MultiRunResult parallel = run_one_multi(
            kind, setup.trace(), setup.cache_capacity(), setup.params(), 4,
            strategy, PolicyOverrides{}, 2000, ParallelOptions{threads});
        ExpectIdentical(sequential, parallel,
                        std::string{to_string(kind)} + "/" +
                            workload::to_string(strategy) + "/T=" +
                            std::to_string(threads));
      }
    }
  }
}

// Same seed, same thread count, run twice: a multi-threaded run is
// repeatable against itself (no dependence on scheduling).
TEST(ParallelSimTest, RepeatedParallelRunsAreIdentical) {
  const World setup{small_params(22)};
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const auto run = [&] {
      return run_one_multi(PolicyKind::kVCover, setup.trace(),
                           setup.cache_capacity(), setup.params(), 8,
                           workload::SplitStrategy::kHashByRegion,
                           PolicyOverrides{}, 2000, ParallelOptions{threads});
    };
    ExpectIdentical(run(), run(), "T=" + std::to_string(threads));
  }
}

// More workers than endpoints and a single-endpoint parallel run are both
// legal and still reproduce the T=1 run.
TEST(ParallelSimTest, DegenerateShapesMatchSequential) {
  const World setup{small_params(23)};
  const MultiRunResult seq1 = run_one_multi(
      PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
      setup.params(), 1, workload::SplitStrategy::kRoundRobin);
  const MultiRunResult par1 = run_one_multi(
      PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
      setup.params(), 1, workload::SplitStrategy::kRoundRobin,
      PolicyOverrides{}, 2000, ParallelOptions{8});
  ExpectIdentical(seq1, par1, "N=1 T=8");
}

// Multi-threaded results satisfy the same partition invariant as T=1 ones:
// per-endpoint figures partition the combined view exactly.
TEST(ParallelSimTest, ParallelResultsSatisfyPartitionInvariant) {
  const World setup{small_params(24)};
  const MultiRunResult parallel = run_one_multi(
      PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
      setup.params(), 4, workload::SplitStrategy::kHashByRegion,
      PolicyOverrides{}, 2000, ParallelOptions{4});
  delta::testing::ExpectPerEndpointResultsPartitionCombined(parallel);
}

}  // namespace
}  // namespace delta::sim
