// End-to-end and property tests over generated traces: the DESIGN.md §7
// invariants checked at system scale for every policy.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "core/benefit_policy.h"
#include "core/vcover_policy.h"
#include "core/yardsticks.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "trace_builder.h"

namespace delta::sim {
namespace {

/// Small but non-trivial world: ~40 MB objects, 6k events.
using World = Setup;  // ::testing::Test::Setup shadows sim::Setup in TESTs

SetupParams small_params(std::uint64_t seed = 3) {
  SetupParams p;
  p.base_level = 4;
  p.total_rows = 4e7;
  p.object_target = 30;
  p.trace_seed = seed;
  p.trace.query_count = 3000;
  p.trace.update_count = 3000;
  p.trace.postwarmup_query_gb = 10.0;
  p.trace.mean_postwarmup_update_mb = 2.0;
  // Scale the hotspot placement cap with the small objects so the hot
  // set's demand/load-cost economics match the paper-scale setup.
  p.trace.hotspot_max_object_gb = 1.0;
  p.benefit_window = 600;
  return p;
}

TEST(IntegrationTest, NoCacheEqualsQueryCostsExactly) {
  const World setup{small_params()};
  const auto r = run_one(PolicyKind::kNoCache, setup.trace(),
                         setup.cache_capacity(), setup.params());
  EXPECT_EQ(r.total_traffic, setup.trace().total_query_cost());
  EXPECT_EQ(r.postwarmup_traffic,
            setup.trace().total_query_cost(
                setup.trace().info.warmup_end_event));
}

TEST(IntegrationTest, ReplicaEqualsUpdateCostsExactly) {
  const World setup{small_params()};
  const auto r = run_one(PolicyKind::kReplica, setup.trace(),
                         setup.cache_capacity(), setup.params());
  EXPECT_EQ(r.total_traffic, setup.trace().total_update_cost());
}

TEST(IntegrationTest, MechanismBreakdownSumsToTotal) {
  const World setup{small_params()};
  for (const PolicyKind kind :
       {PolicyKind::kVCover, PolicyKind::kBenefit, PolicyKind::kSOptimal}) {
    const auto r = run_one(kind, setup.trace(), setup.cache_capacity(),
                           setup.params());
    Bytes sum;
    for (const Bytes b : r.postwarmup_by_mechanism) sum += b;
    EXPECT_EQ(sum, r.postwarmup_traffic) << r.policy_name;
    EXPECT_LE(r.postwarmup_traffic, r.total_traffic) << r.policy_name;
  }
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  const World setup{small_params()};
  for (const PolicyKind kind :
       {PolicyKind::kVCover, PolicyKind::kBenefit, PolicyKind::kSOptimal}) {
    const auto a = run_one(kind, setup.trace(), setup.cache_capacity(),
                           setup.params());
    const auto b = run_one(kind, setup.trace(), setup.cache_capacity(),
                           setup.params());
    EXPECT_EQ(a.total_traffic, b.total_traffic) << a.policy_name;
    EXPECT_EQ(a.cache_fresh, b.cache_fresh) << a.policy_name;
    EXPECT_EQ(a.objects_loaded, b.objects_loaded) << a.policy_name;
  }
}

TEST(IntegrationTest, VCoverBeatsNoCacheOnDefaultWorkload) {
  const World setup{small_params()};
  const auto nocache = run_one(PolicyKind::kNoCache, setup.trace(),
                               setup.cache_capacity(), setup.params());
  const auto vcover = run_one(PolicyKind::kVCover, setup.trace(),
                              setup.cache_capacity(), setup.params());
  EXPECT_LT(vcover.postwarmup_traffic, nocache.postwarmup_traffic);
}

TEST(IntegrationTest, SOptimalIsTheStrongestYardstick) {
  const World setup{small_params()};
  const auto soptimal = run_one(PolicyKind::kSOptimal, setup.trace(),
                                setup.cache_capacity(), setup.params());
  const auto vcover = run_one(PolicyKind::kVCover, setup.trace(),
                              setup.cache_capacity(), setup.params());
  // The offline static optimum (loads excluded from the post-warm-up
  // window by construction) must not lose to the online algorithm.
  EXPECT_LE(soptimal.postwarmup_traffic.as_double(),
            vcover.postwarmup_traffic.as_double() * 1.05);
}

// The central correctness property (DESIGN.md §7.1): every query answered
// at the cache satisfies its currency requirement — all interacting updates
// older than t(q) have been applied (shipped or folded into a load).
TEST(IntegrationTest, VCoverCurrencyInvariantHolds) {
  const World setup{small_params(11)};
  const auto& trace = setup.trace();
  core::DeltaSystem system{&trace};
  core::VCoverOptions opts;
  opts.cache_capacity = setup.cache_capacity();
  core::VCoverPolicy policy{&system.cache(), opts};

  // Mirror of unapplied updates per object since its last load.
  std::map<ObjectId, std::vector<const workload::Update*>> unapplied;
  std::set<ObjectId> resident;

  const auto refresh_residency = [&] {
    std::set<ObjectId> now_resident;
    for (const ObjectId o : policy.store().resident_objects()) {
      now_resident.insert(o);
      if (resident.count(o) == 0) {
        unapplied[o].clear();  // fresh load folds all updates in
      }
    }
    for (const ObjectId o : resident) {
      if (now_resident.count(o) == 0) unapplied[o].clear();  // evicted
    }
    resident = std::move(now_resident);
  };

  std::int64_t cache_answers_checked = 0;
  for (const auto& e : trace.order) {
    if (e.kind == workload::Event::Kind::kUpdate) {
      const auto& u = trace.updates[static_cast<std::size_t>(e.index)];
      system.server().ingest_update(u);
      if (resident.count(u.object) > 0) unapplied[u.object].push_back(&u);
      refresh_residency();  // preshipping may have applied it already
      continue;
    }
    const auto& q = trace.queries[static_cast<std::size_t>(e.index)];
    const auto outcome = policy.on_query(q);
    // Remove updates the decision shipped.
    for (const UpdateId uid : outcome.shipped_update_ids) {
      const auto& u = trace.updates[static_cast<std::size_t>(uid.value())];
      auto& list = unapplied[u.object];
      list.erase(std::remove(list.begin(), list.end(), &u), list.end());
    }
    refresh_residency();
    if (outcome.path != core::QueryOutcome::Path::kShipped) {
      ++cache_answers_checked;
      for (const ObjectId o : q.objects) {
        ASSERT_TRUE(resident.count(o) > 0)
            << "cache answer with non-resident object at t=" << q.time;
        for (const workload::Update* u : unapplied[o]) {
          ASSERT_GT(u->time, q.time - q.staleness_tolerance)
              << "stale answer: query t=" << q.time << " tol="
              << q.staleness_tolerance << " missed update t=" << u->time;
        }
      }
    }
  }
  // The invariant must have been exercised.
  EXPECT_GT(cache_answers_checked, 50);
}

TEST(IntegrationTest, VCoverCapacityNeverExceededAtQueryBoundaries) {
  const World setup{small_params(13)};
  const auto& trace = setup.trace();
  core::DeltaSystem system{&trace};
  core::VCoverOptions opts;
  opts.cache_capacity = setup.cache_capacity();
  core::VCoverPolicy policy{&system.cache(), opts};
  for (const auto& e : trace.order) {
    if (e.kind == workload::Event::Kind::kUpdate) {
      system.server().ingest_update(
          trace.updates[static_cast<std::size_t>(e.index)]);
    } else {
      policy.on_query(trace.queries[static_cast<std::size_t>(e.index)]);
      ASSERT_LE(policy.store().used(), policy.store().capacity());
    }
  }
}

TEST(IntegrationTest, CacheRestartRecovers) {
  // Failure injection: wipe the cache mid-trace; the policy must keep
  // answering correctly (everything misses until re-warmed).
  const World setup{small_params(17)};
  const auto& trace = setup.trace();
  core::DeltaSystem system{&trace};
  core::VCoverOptions opts;
  opts.cache_capacity = setup.cache_capacity();
  core::VCoverPolicy policy{&system.cache(), opts};

  // Run the first half through the simulator-equivalent loop.
  const std::size_t half = trace.order.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const auto& e = trace.order[i];
    if (e.kind == workload::Event::Kind::kUpdate) {
      system.server().ingest_update(
          trace.updates[static_cast<std::size_t>(e.index)]);
    } else {
      policy.on_query(trace.queries[static_cast<std::size_t>(e.index)]);
    }
  }
  // Crash: build a fresh policy over the same (still running) repository.
  core::VCoverPolicy restarted{&system.cache(), opts};
  // The server still believes some objects are registered; a restarted
  // cache must re-register through loads. Deregister what the old cache
  // held (the middleware's recovery handshake).
  for (const ObjectId o : policy.store().resident_objects()) {
    system.cache().notify_eviction(o);
  }
  for (std::size_t i = half; i < trace.order.size(); ++i) {
    const auto& e = trace.order[i];
    if (e.kind == workload::Event::Kind::kUpdate) {
      system.server().ingest_update(
          trace.updates[static_cast<std::size_t>(e.index)]);
    } else {
      const auto out = restarted.on_query(
          trace.queries[static_cast<std::size_t>(e.index)]);
      (void)out;
      ASSERT_LE(restarted.store().used(), restarted.store().capacity());
    }
  }
  // It re-warmed: some queries were answered at the cache again.
  EXPECT_GT(restarted.cache_answers(), 0);
}

// TraceBuilder traces never pass Trace::validate, so an object id one past
// the end reaches the replay loop. Every policy must leave it to an id range
// check (which throws) and never index its own per-object tables with it
// first — the ASan build of this test is what proves the second half.
TEST(IntegrationTest, OutOfRangeObjectIdThrowsForEveryPolicy) {
  using testing::TraceBuilder;
  const auto run = [](PolicyKind kind, const workload::Trace& trace) {
    core::DeltaSystem system{&trace};
    const auto policy = make_policy(kind, system.cache(), trace,
                                    Bytes{10'000}, SetupParams{});
    (void)run_policy(trace, system, *policy);
  };
  workload::Trace query_trace =
      TraceBuilder{{1000, 2000}}.query({0}, 300).query({1, 2}, 300).build();
  workload::Trace update_trace =
      TraceBuilder{{1000, 2000}}.query({0}, 300).update(2, 100).build();
  for (const PolicyKind kind :
       {PolicyKind::kNoCache, PolicyKind::kReplica, PolicyKind::kBenefit,
        PolicyKind::kVCover, PolicyKind::kSOptimal}) {
    EXPECT_THROW(run(kind, query_trace), std::logic_error) << to_string(kind);
    EXPECT_THROW(run(kind, update_trace), std::logic_error)
        << to_string(kind);
  }
}

class SeedSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweepTest, InvariantsHoldAcrossSeeds) {
  SetupParams p = small_params(GetParam());
  const World setup{p};
  const auto nocache = run_one(PolicyKind::kNoCache, setup.trace(),
                               setup.cache_capacity(), p);
  const auto vcover = run_one(PolicyKind::kVCover, setup.trace(),
                              setup.cache_capacity(), p);
  const auto replica = run_one(PolicyKind::kReplica, setup.trace(),
                               setup.cache_capacity(), p);
  // Accounting identities.
  EXPECT_EQ(nocache.total_traffic, setup.trace().total_query_cost());
  EXPECT_EQ(replica.total_traffic, setup.trace().total_update_cost());
  // VCover never does worse than shipping everything plus loading the
  // whole repository once (a crude sanity ceiling).
  EXPECT_LT(vcover.total_traffic.as_double(),
            nocache.total_traffic.as_double() +
                setup.server_bytes().as_double());
  // Latency proxy: cache answers make the mean response time no worse
  // than NoCache's.
  if (vcover.cache_fresh + vcover.cache_after_updates > 0) {
    EXPECT_LE(vcover.postwarmup_latency.mean(),
              nocache.postwarmup_latency.mean() * 1.05);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(21u, 22u, 23u, 24u));

}  // namespace
}  // namespace delta::sim
