#include "core/benefit_policy.h"

#include <gtest/gtest.h>

#include "core/delta_system.h"
#include "trace_builder.h"

namespace delta::core {
namespace {

using testing::TraceBuilder;

constexpr std::int64_t kOverhead = 256 * 1024;

struct Harness {
  workload::Trace trace;
  DeltaSystem system;
  BenefitPolicy policy;

  Harness(workload::Trace t, BenefitOptions opts)
      : trace(std::move(t)), system(&trace), policy(&system.cache(), opts) {}

  void replay() {
    for (const auto& e : trace.order) {
      if (e.kind == workload::Event::Kind::kUpdate) {
        system.server().ingest_update(
            trace.updates[static_cast<std::size_t>(e.index)]);
      } else {
        policy.on_query(trace.queries[static_cast<std::size_t>(e.index)]);
      }
    }
  }
};

TEST(BenefitPolicyTest, LoadsProfitableObjectAtWindowBoundary) {
  const std::int64_t obj = 1'000'000;
  TraceBuilder b{{obj}};
  // Window of 4 events: hammer object 0 with queries far exceeding the
  // load cost; after the first window it should be cached.
  for (int i = 0; i < 8; ++i) b.query({0}, 2'000'000);
  BenefitOptions opts;
  opts.cache_capacity = Bytes{10'000'000};
  opts.window = 4;
  opts.alpha = 1.0;  // no smoothing: react to the last window only
  Harness h{b.build(), opts};
  h.replay();
  EXPECT_TRUE(h.policy.store().contains(ObjectId{0}));
  EXPECT_EQ(h.policy.loads(), 1);
  // Queries 5..8 were answered at the cache: only 4 shipped.
  EXPECT_EQ(h.system.meter().total(net::Mechanism::kQueryShip).count(),
            4 * 2'000'000);
  EXPECT_EQ(h.system.meter().total(net::Mechanism::kObjectLoad).count(),
            obj + kOverhead);
}

TEST(BenefitPolicyTest, NegativeForecastObjectNotCached) {
  const std::int64_t obj = 1'000'000;
  TraceBuilder b{{obj}};
  for (int i = 0; i < 8; ++i) b.query({0}, 1'000);  // tiny queries
  BenefitOptions opts;
  opts.cache_capacity = Bytes{10'000'000};
  opts.window = 4;
  opts.alpha = 1.0;
  Harness h{b.build(), opts};
  h.replay();
  EXPECT_FALSE(h.policy.store().contains(ObjectId{0}));
  EXPECT_EQ(h.policy.loads(), 0);
}

TEST(BenefitPolicyTest, CachedObjectsReceiveUpdatesEagerly) {
  const std::int64_t obj = 1'000'000;
  TraceBuilder b{{obj}};
  for (int i = 0; i < 4; ++i) b.query({0}, 2'000'000);
  b.update(0, 123'456);  // object is cached by now: shipped on arrival
  BenefitOptions opts;
  opts.cache_capacity = Bytes{10'000'000};
  opts.window = 4;
  opts.alpha = 1.0;
  Harness h{b.build(), opts};
  h.replay();
  EXPECT_EQ(h.system.meter().total(net::Mechanism::kUpdateShip).count(),
            123'456);
  EXPECT_EQ(h.policy.store().bytes_of(ObjectId{0}).count(), obj + 123'456);
}

TEST(BenefitPolicyTest, UpdateHeavyObjectGetsDropped) {
  const std::int64_t obj = 1'000'000;
  TraceBuilder b{{obj}};
  for (int i = 0; i < 4; ++i) b.query({0}, 2'000'000);  // window 1: cache it
  // Window 2+: only updates, far outweighing any query savings.
  for (int i = 0; i < 8; ++i) b.update(0, 3'000'000);
  BenefitOptions opts;
  opts.cache_capacity = Bytes{10'000'000};
  opts.window = 4;
  opts.alpha = 1.0;
  Harness h{b.build(), opts};
  h.replay();
  EXPECT_FALSE(h.policy.store().contains(ObjectId{0}));
  EXPECT_GT(h.policy.evictions(), 0);
}

TEST(BenefitPolicyTest, ProportionalAttributionCausesThrash) {
  // Two objects; all queries touch both, so neither alone answers anything.
  // Object 1 is 4x larger and receives 4x the attributed counterfactual
  // benefit; with capacity for only one object, Benefit caches the big one
  // after window 1 — useless, since B(q) is still not fully cached. In
  // window 2 the cached object earns nothing (saved = 0) while the missing
  // one keeps accruing counterfactual benefit, so Benefit flips to it:
  // the attribution weakness the paper calls out, realized as thrash.
  TraceBuilder b{{1'000'000, 4'000'000}};
  for (int i = 0; i < 8; ++i) b.query({0, 1}, 20'000'000);
  BenefitOptions opts;
  opts.cache_capacity = Bytes{4'500'000};  // fits only the big object
  opts.window = 4;
  opts.alpha = 1.0;
  Harness h{b.build(), opts};
  h.replay();
  // After window 1: {1}. After window 2: flipped to {0}.
  EXPECT_TRUE(h.policy.store().contains(ObjectId{0}));
  EXPECT_FALSE(h.policy.store().contains(ObjectId{1}));
  EXPECT_EQ(h.policy.loads(), 2);
  EXPECT_EQ(h.policy.evictions(), 1);
  // And because B(q) is never fully cached, every query still ships.
  EXPECT_EQ(h.system.meter().total(net::Mechanism::kQueryShip).count(),
            8 * 20'000'000LL);
}

TEST(BenefitPolicyTest, SmoothingDampensReactionToUpdateBursts) {
  // Window 1: a huge query loads the object. Windows 2-3: update bursts
  // make the per-window benefit negative. With α=1 the forecast flips
  // negative after one bad window and the object is dropped; with α=0.1
  // the earlier query benefit dominates and the object survives.
  const auto build = [] {
    TraceBuilder b{{1'000'000}};
    b.query({0}, 50'000'000);
    for (int i = 0; i < 3; ++i) b.query({0}, 1'000);
    for (int i = 0; i < 8; ++i) b.update(0, 2'000'000);
    return b.build();
  };
  BenefitOptions smooth;
  smooth.cache_capacity = Bytes{30'000'000};
  smooth.window = 4;
  smooth.alpha = 0.1;
  Harness h{build(), smooth};
  h.replay();
  EXPECT_TRUE(h.policy.store().contains(ObjectId{0}));

  BenefitOptions reactive = smooth;
  reactive.alpha = 1.0;
  Harness h2{build(), reactive};
  h2.replay();
  EXPECT_FALSE(h2.policy.store().contains(ObjectId{0}));
}

TEST(BenefitPolicyTest, WindowCountMatchesEventCount) {
  TraceBuilder b{{1'000'000}};
  for (int i = 0; i < 10; ++i) b.query({0}, 1'000);
  for (int i = 0; i < 10; ++i) b.update(0, 1'000);
  BenefitOptions opts;
  opts.cache_capacity = Bytes{10'000'000};
  opts.window = 5;
  Harness h{b.build(), opts};
  h.replay();
  EXPECT_EQ(h.policy.windows_closed(), 4);  // 20 events / 5 per window
}

}  // namespace
}  // namespace delta::core
