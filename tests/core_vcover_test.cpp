#include "core/vcover_policy.h"

#include <gtest/gtest.h>

#include "core/delta_system.h"
#include "net/delayed_transport.h"
#include "util/event_queue.h"
#include "trace_builder.h"

namespace delta::core {
namespace {

using testing::TraceBuilder;

constexpr std::int64_t kOverhead = 256 * 1024;  // DeltaSystem load framing

VCoverOptions options_for_tests(Bytes capacity) {
  VCoverOptions o;
  o.cache_capacity = capacity;
  // Deterministic counter-based loading makes unit expectations exact.
  o.loading.randomized = false;
  return o;
}

struct Harness {
  workload::Trace trace;
  DeltaSystem system;
  VCoverPolicy policy;

  Harness(workload::Trace t, Bytes capacity,
          VCoverOptions (*opt)(Bytes) = options_for_tests)
      : trace(std::move(t)),
        system(&trace),
        policy(&system.cache(), opt(capacity)) {}

  /// Replays the whole merged sequence, returning per-query outcomes.
  std::vector<QueryOutcome> replay() {
    std::vector<QueryOutcome> outcomes;
    for (const auto& e : trace.order) {
      if (e.kind == workload::Event::Kind::kUpdate) {
        system.server().ingest_update(
            trace.updates[static_cast<std::size_t>(e.index)]);
      } else {
        outcomes.push_back(policy.on_query(
            trace.queries[static_cast<std::size_t>(e.index)]));
      }
    }
    return outcomes;
  }
};

TEST(VCoverPolicyTest, BypassRuleLoadsAfterShippedCostCoversLoadCost) {
  // Object of 1 MB: load cost = 1 MB + framing. Queries of 600 KB each:
  // the accumulated counter crosses after 3 queries (1.8 MB > ~1.26 MB).
  const std::int64_t obj = 1'000'000;
  const std::int64_t qcost = 600'000;
  TraceBuilder b{{obj}};
  for (int i = 0; i < 4; ++i) b.query({0}, qcost);
  Harness h{b.build(), Bytes{10'000'000}};
  const auto outcomes = h.replay();
  ASSERT_EQ(outcomes.size(), 4u);
  // Query 1: counter 600K < 1.26M -> no load. Query 2: 1.2M < 1.26M.
  // Query 3: 1.8M >= 1.26M -> load happens in its background.
  EXPECT_EQ(outcomes[0].objects_loaded, 0);
  EXPECT_EQ(outcomes[1].objects_loaded, 0);
  EXPECT_EQ(outcomes[2].objects_loaded, 1);
  EXPECT_EQ(outcomes[2].path, QueryOutcome::Path::kShipped);
  // Query 4 is answered at the cache.
  EXPECT_EQ(outcomes[3].path, QueryOutcome::Path::kCacheFresh);
  EXPECT_EQ(h.policy.cache_answers(), 1);
  // Traffic: 3 shipped queries + 1 load.
  EXPECT_EQ(h.system.meter().total(net::Mechanism::kQueryShip).count(),
            3 * qcost);
  EXPECT_EQ(h.system.meter().total(net::Mechanism::kObjectLoad).count(),
            obj + kOverhead);
}

TEST(VCoverPolicyTest, UpdateShippingDecisionFollowsCover) {
  const std::int64_t obj = 1'000'000;
  TraceBuilder b{{obj}};
  b.query({0}, 2'000'000);  // loads the object (counter covers load cost)
  b.update(0, 300'000);
  b.query({0}, 100'000);  // cheap: ship the query
  b.query({0}, 250'000);  // accumulated 350K > 300K: ship the update
  Harness h{b.build(), Bytes{10'000'000}};
  const auto outcomes = h.replay();
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].objects_loaded, 1);
  EXPECT_EQ(outcomes[1].path, QueryOutcome::Path::kShipped);
  EXPECT_TRUE(outcomes[1].shipped_update_ids.empty());
  EXPECT_EQ(outcomes[2].path, QueryOutcome::Path::kCacheAfterUpdates);
  ASSERT_EQ(outcomes[2].shipped_update_ids.size(), 1u);
  EXPECT_EQ(h.system.meter().total(net::Mechanism::kUpdateShip).count(),
            300'000);
}

TEST(VCoverPolicyTest, CachedObjectGrowsWithShippedUpdates) {
  const std::int64_t obj = 1'000'000;
  TraceBuilder b{{obj}};
  b.query({0}, 2'000'000);  // load
  b.update(0, 50'000);
  b.query({0}, 2'000'000);  // expensive: cover ships the update
  Harness h{b.build(), Bytes{10'000'000}};
  h.replay();
  EXPECT_EQ(h.policy.store().bytes_of(ObjectId{0}).count(), obj + 50'000);
  EXPECT_FALSE(h.policy.store().is_stale(ObjectId{0}));
}

TEST(VCoverPolicyTest, ToleranceAvoidsUpdateShipping) {
  const std::int64_t obj = 1'000'000;
  TraceBuilder b{{obj}};
  b.query({0}, 2'000'000);           // load (event 0)
  b.update(0, 500'000);              // event 1
  b.query({0}, 2'000'000, 100);      // event 2, tolerance covers the update
  Harness h{b.build(), Bytes{10'000'000}};
  const auto outcomes = h.replay();
  EXPECT_EQ(outcomes[1].path, QueryOutcome::Path::kCacheFresh);
  EXPECT_TRUE(outcomes[1].shipped_update_ids.empty());
  EXPECT_EQ(h.system.meter().total(net::Mechanism::kUpdateShip).count(), 0);
}

TEST(VCoverPolicyTest, EvictionDropsOutstandingUpdatesAndDeregisters) {
  // Capacity fits one object; loading the second evicts the first.
  const std::int64_t obj = 1'000'000;
  TraceBuilder b{{obj, obj}};
  b.query({0}, 3'000'000);  // loads 0
  b.update(0, 100'000);     // outstanding on cached 0
  b.query({1}, 3'000'000);  // loads 1, evicting 0
  const auto trace = b.build();
  Harness h{trace, Bytes{1'500'000}};
  h.replay();
  EXPECT_FALSE(h.policy.store().contains(ObjectId{0}));
  EXPECT_TRUE(h.policy.store().contains(ObjectId{1}));
  EXPECT_FALSE(h.system.cache().is_registered(ObjectId{0}));
  EXPECT_TRUE(h.system.cache().is_registered(ObjectId{1}));
  EXPECT_EQ(h.policy.update_manager().graph_update_count(), 0u);
  EXPECT_EQ(h.policy.evictions(), 1);
}

TEST(VCoverPolicyTest, LoadedObjectIsFreshIncludingPriorUpdates) {
  const std::int64_t obj = 1'000'000;
  TraceBuilder b{{obj}};
  b.update(0, 400'000);     // arrives before the object is ever cached
  b.query({0}, 3'000'000);  // loads it (fresh, update folded in)
  b.query({0}, 100'000);    // must be answerable at cache with no shipping
  Harness h{b.build(), Bytes{10'000'000}};
  const auto outcomes = h.replay();
  EXPECT_EQ(outcomes[1].path, QueryOutcome::Path::kCacheFresh);
  EXPECT_EQ(h.system.meter().total(net::Mechanism::kUpdateShip).count(), 0);
  // The load shipped the grown object (initial + update bytes).
  EXPECT_EQ(h.system.meter().total(net::Mechanism::kObjectLoad).count(),
            obj + 400'000 + kOverhead);
}

TEST(VCoverPolicyTest, GrowthOverflowShedsToCapacity) {
  const std::int64_t obj = 1'000'000;
  TraceBuilder b{{obj, obj}};
  b.query({0}, 3'000'000);      // load 0
  b.query({1}, 3'000'000);      // load 1 (2.0 MB used of 2.2 MB)
  b.update(0, 400'000);
  b.query({0, 1}, 5'000'000);   // ships update for 0 -> 2.4 MB > capacity
  Harness h{b.build(), Bytes{2'200'000}};
  h.replay();
  EXPECT_LE(h.policy.store().used(), Bytes{2'200'000});
  EXPECT_FALSE(h.policy.store().over_capacity());
  EXPECT_EQ(h.policy.store().object_count(), 1u);
}

TEST(VCoverPolicyTest, RandomizedLoadingMatchesExpectationOverManyTrials) {
  // One object, queries of cost exactly half the load cost: each shipped
  // query proposes a load with probability 1/2. After many queries the
  // object is all but surely loaded.
  const std::int64_t obj = 1'000'000;
  const std::int64_t load_cost = obj + kOverhead;
  TraceBuilder b{{obj}};
  for (int i = 0; i < 40; ++i) b.query({0}, load_cost / 2);
  VCoverOptions opts;
  opts.cache_capacity = Bytes{10'000'000};
  opts.loading.randomized = true;
  workload::Trace trace = b.build();
  DeltaSystem system{&trace};
  VCoverPolicy policy{&system.cache(), opts};
  int loaded_at = -1;
  for (std::size_t i = 0; i < trace.queries.size(); ++i) {
    const auto out = policy.on_query(trace.queries[i]);
    if (out.objects_loaded > 0) {
      loaded_at = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(loaded_at, 0) << "object never loaded in 40 coin flips";
  EXPECT_LT(loaded_at, 39);
}

TEST(VCoverPolicyTest, NeverLoadsObjectLargerThanCache) {
  const std::int64_t obj = 5'000'000;
  TraceBuilder b{{obj}};
  for (int i = 0; i < 10; ++i) b.query({0}, 20'000'000);
  Harness h{b.build(), Bytes{1'000'000}};
  const auto outcomes = h.replay();
  for (const auto& out : outcomes) {
    EXPECT_EQ(out.objects_loaded, 0);
    EXPECT_EQ(out.path, QueryOutcome::Path::kShipped);
  }
  EXPECT_EQ(h.policy.store().object_count(), 0u);
}

TEST(VCoverPolicyTest, PreshipShipsUpdatesForHotObjects) {
  const std::int64_t obj = 1'000'000;
  TraceBuilder b{{obj}};
  b.query({0}, 3'000'000);  // load
  for (int i = 0; i < 6; ++i) b.query({0}, 100'000);  // heat up
  b.update(0, 200'000);
  b.query({0}, 100'000);  // should find the object already fresh
  VCoverOptions opts = options_for_tests(Bytes{10'000'000});
  opts.preship = true;
  opts.preship_heat_threshold = 3.0;
  workload::Trace trace = b.build();
  DeltaSystem system{&trace};
  VCoverPolicy policy{&system.cache(), opts};
  std::vector<QueryOutcome> outcomes;
  for (const auto& e : trace.order) {
    if (e.kind == workload::Event::Kind::kUpdate) {
      system.server().ingest_update(
          trace.updates[static_cast<std::size_t>(e.index)]);
    } else {
      outcomes.push_back(
          policy.on_query(trace.queries[static_cast<std::size_t>(e.index)]));
    }
  }
  EXPECT_EQ(policy.preshipped(), 1);
  EXPECT_EQ(outcomes.back().path, QueryOutcome::Path::kCacheFresh);
  EXPECT_EQ(system.meter().total(net::Mechanism::kUpdateShip).count(),
            200'000);
}

// An invalidation for a non-resident object is a protocol violation over
// inline delivery — but over an event-driven transport it is the
// legitimate eviction-notice-in-flight race and must be dropped, not
// crash the run.
TEST(VCoverPolicyTest, StaleInvalidationToleratedOnlyOverAsyncTransport) {
  TraceBuilder b{{1'000'000, 1'000'000}};
  b.query({0}, 600'000);
  b.update(1, 50'000);  // targets an object the cache never held
  {
    Harness h{b.build(), Bytes{10'000'000}};
    EXPECT_THROW(h.policy.on_update(h.trace.updates[0]), std::logic_error);
  }
  {
    workload::Trace trace = b.build();
    util::EventQueue events;
    net::DelayedTransport transport{&events, net::LinkModel{1e6, 0.020}};
    ServerNode server{&trace, &transport};
    CacheNode cache{&trace, &server};
    VCoverPolicy policy{&cache, options_for_tests(Bytes{10'000'000})};
    EXPECT_NO_THROW(policy.on_update(trace.updates[0]));
  }
}

}  // namespace
}  // namespace delta::core
