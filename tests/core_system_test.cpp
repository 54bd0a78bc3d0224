#include <gtest/gtest.h>

#include "core/delta_system.h"
#include "trace_builder.h"

namespace delta::core {
namespace {

using testing::TraceBuilder;

workload::Trace two_object_trace() {
  TraceBuilder b{{1000, 2000}};
  b.query({0}, 300);
  b.update(1, 120);
  b.query({0, 1}, 500);
  return b.build();
}

TEST(DeltaSystemTest, InitialObjectSizesFromTrace) {
  const auto trace = two_object_trace();
  DeltaSystem sys{&trace};
  EXPECT_EQ(sys.server().object_count(), 2u);
  EXPECT_EQ(sys.server().object_bytes(ObjectId{0}).count(), 1000);
  EXPECT_EQ(sys.server().object_bytes(ObjectId{1}).count(), 2000);
  EXPECT_EQ(sys.server().load_cost(ObjectId{0}),
            Bytes{1000} + ServerNode::kLoadOverheadBytes);
}

TEST(DeltaSystemTest, IngestGrowsServerObject) {
  const auto trace = two_object_trace();
  DeltaSystem sys{&trace};
  sys.server().ingest_update(trace.updates[0]);
  EXPECT_EQ(sys.server().object_bytes(ObjectId{1}).count(), 2120);
}

TEST(DeltaSystemTest, ShipQueryAccountsResultBytes) {
  const auto trace = two_object_trace();
  DeltaSystem sys{&trace};
  const Bytes got = sys.cache().ship_query(trace.queries[0]);
  EXPECT_EQ(got.count(), 300);
  EXPECT_EQ(sys.meter().total(net::Mechanism::kQueryShip).count(), 300);
  EXPECT_GT(sys.meter().total(net::Mechanism::kOverhead).count(), 0);
}

TEST(DeltaSystemTest, ShipUpdateAccountsContentBytes) {
  const auto trace = two_object_trace();
  DeltaSystem sys{&trace};
  EXPECT_EQ(sys.cache().ship_update(trace.updates[0]).count(), 120);
  EXPECT_EQ(sys.meter().total(net::Mechanism::kUpdateShip).count(), 120);
}

TEST(DeltaSystemTest, LoadRegistersAndAccountsBytes) {
  const auto trace = two_object_trace();
  DeltaSystem sys{&trace};
  EXPECT_FALSE(sys.cache().is_registered(ObjectId{0}));
  const Bytes loaded = sys.cache().load_object(ObjectId{0});
  EXPECT_EQ(loaded, Bytes{1000} + ServerNode::kLoadOverheadBytes);
  EXPECT_TRUE(sys.cache().is_registered(ObjectId{0}));
  EXPECT_EQ(sys.meter().total(net::Mechanism::kObjectLoad), loaded);
  sys.cache().notify_eviction(ObjectId{0});
  EXPECT_FALSE(sys.cache().is_registered(ObjectId{0}));
}

TEST(DeltaSystemTest, SubscriptionNoneDeliversNothing) {
  const auto trace = two_object_trace();
  DeltaSystem sys{&trace};
  int delivered = 0;
  sys.cache().set_subscription(MetadataSubscription::kNone);
  sys.cache().set_invalidation_handler(
      [&](const workload::Update&) { ++delivered; });
  sys.server().ingest_update(trace.updates[0]);
  EXPECT_EQ(delivered, 0);
}

TEST(DeltaSystemTest, SubscriptionAllDeliversEverything) {
  const auto trace = two_object_trace();
  DeltaSystem sys{&trace};
  int delivered = 0;
  sys.cache().set_subscription(MetadataSubscription::kAll);
  sys.cache().set_invalidation_handler([&](const workload::Update& u) {
    ++delivered;
    EXPECT_EQ(u.id, trace.updates[0].id);
  });
  sys.server().ingest_update(trace.updates[0]);
  EXPECT_EQ(delivered, 1);
}

TEST(DeltaSystemTest, RegisteredOnlyFollowsRegistration) {
  const auto trace = two_object_trace();
  DeltaSystem sys{&trace};
  int delivered = 0;
  sys.cache().set_subscription(MetadataSubscription::kRegisteredOnly);
  sys.cache().set_invalidation_handler(
      [&](const workload::Update&) { ++delivered; });
  sys.server().ingest_update(trace.updates[0]);
  EXPECT_EQ(delivered, 0);  // object 1 not registered
  sys.cache().load_object(ObjectId{1});
  sys.server().ingest_update(trace.updates[0]);
  EXPECT_EQ(delivered, 1);
  sys.cache().notify_eviction(ObjectId{1});
  sys.server().ingest_update(trace.updates[0]);
  EXPECT_EQ(delivered, 1);
}

TEST(DeltaSystemTest, InvalidationsAreOverheadOnly) {
  const auto trace = two_object_trace();
  DeltaSystem sys{&trace};
  sys.cache().set_subscription(MetadataSubscription::kAll);
  sys.cache().set_invalidation_handler([](const workload::Update&) {});
  sys.server().ingest_update(trace.updates[0]);
  EXPECT_EQ(sys.meter().figure_total().count(), 0);
  EXPECT_GT(sys.meter().total(net::Mechanism::kOverhead).count(), 0);
}

}  // namespace
}  // namespace delta::core
