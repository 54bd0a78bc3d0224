// Parallel simulation tests on the event engine over zero-latency links:
// a one-endpoint run on eight threads against the single-cache loop, the
// repeated-run determinism of multi-threaded runs, and the accounting
// invariants on their results. (Every thread count reproducing the pinned
// multi-endpoint tables is sim_golden_test's; the WAN configs are
// event_engine_test's.)
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "meter_invariants.h"
#include "result_identity.h"
#include "sim/event_engine.h"
#include "sim/experiment.h"
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

EventEngineOptions with_threads(std::size_t threads) {
  EventEngineOptions options;
  options.parallel.num_threads = threads;
  return options;
}

using delta::testing::ExpectIdentical;

bool same_points(const util::CumulativeSeries& a,
                 const util::CumulativeSeries& b) {
  return std::equal(a.points().begin(), a.points().end(), b.points().begin(),
                    b.points().end(),
                    [](const util::CumulativeSeries::Point& x,
                       const util::CumulativeSeries::Point& y) {
                      return x.event_index == y.event_index &&
                             x.value == y.value;
                    });
}

// More workers than endpoints is legal: one endpoint on eight threads
// reproduces its T=1 run bit for bit, and the single-cache loop's rows in
// both its combined and its endpoint view. The cumulative series matches
// the single-cache loop's too, except for Replica: the engine delivers a zero-latency notice at the next event's
// clock advance, so Replica's refresh traffic lands one event later in
// the series (its totals still agree). Response times are simulated, not
// the loop's analytic proxy, so they are not compared.
TEST(ParallelSimTest, OneEndpointOnEightThreadsMatchesSingleCacheLoop) {
  const World setup{small_params(23)};
  for (const PolicyKind kind :
       {PolicyKind::kNoCache, PolicyKind::kReplica, PolicyKind::kBenefit,
        PolicyKind::kVCover, PolicyKind::kSOptimal}) {
    const std::string label = to_string(kind);
    const auto run = [&](std::size_t threads) {
      return run_one_event(kind, setup.trace(), setup.cache_capacity(),
                           setup.params(), 1,
                           workload::SplitStrategy::kRoundRobin,
                           with_threads(threads))
          .replay;
    };
    const MultiRunResult par1 = run(8);
    ExpectIdentical(run(1), par1, label + " N=1 T=8");

    RunResult single = run_one(kind, setup.trace(), setup.cache_capacity(),
                               setup.params());
    single.postwarmup_latency = par1.combined.postwarmup_latency;
    if (kind == PolicyKind::kReplica) {
      EXPECT_FALSE(same_points(single.series, par1.combined.series));
      single.series = par1.combined.series;
    }
    ExpectIdentical(par1.combined, single, label + " vs run_one");
    // The endpoint view leaves out the chatter bound for the repository.
    RunResult endpoint = par1.per_endpoint.at(0);
    endpoint.overhead_traffic = single.overhead_traffic;
    ExpectIdentical(endpoint, single, label + " endpoint vs run_one");
  }
}

// Same seed, same thread count, run twice: a multi-threaded run over
// eight endpoints is repeatable against itself (no dependence on
// scheduling).
TEST(ParallelSimTest, RepeatedParallelRunsAreIdentical) {
  const World setup{small_params(22)};
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const auto run = [&] {
      return run_one_event(PolicyKind::kVCover, setup.trace(),
                           setup.cache_capacity(), setup.params(), 8,
                           workload::SplitStrategy::kHashByRegion,
                           with_threads(threads))
          .replay;
    };
    ExpectIdentical(run(), run(), "T=" + std::to_string(threads));
  }
}

// Multi-threaded results partition the combined view exactly: per-endpoint
// traffic and counters sum to it, and every query was routed to exactly
// one endpoint.
TEST(ParallelSimTest, ParallelResultsSatisfyPartitionInvariant) {
  const World setup{small_params(24)};
  for (const auto strategy : {workload::SplitStrategy::kRoundRobin,
                              workload::SplitStrategy::kHashByRegion}) {
    for (const std::size_t n : {2u, 4u}) {
      SCOPED_TRACE(std::string{workload::to_string(strategy)} +
                   " n=" + std::to_string(n));
      const MultiRunResult multi =
          run_one_event(PolicyKind::kVCover, setup.trace(),
                        setup.cache_capacity(), setup.params(), n, strategy,
                        with_threads(4))
              .replay;
      ASSERT_EQ(multi.per_endpoint.size(), n);
      delta::testing::ExpectPerEndpointResultsPartitionCombined(multi);
      EXPECT_EQ(multi.combined.queries,
                static_cast<std::int64_t>(setup.trace().queries.size()));
    }
  }
}

}  // namespace
}  // namespace delta::sim
