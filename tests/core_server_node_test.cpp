// ServerNode/CacheNode unit tests: the multi-endpoint coherence protocol —
// per-cache registration, per-cache subscriptions, invalidation fan-out,
// and per-endpoint byte accounting on the shared transport.
#include <gtest/gtest.h>

#include <vector>

#include "core/cache_node.h"
#include "core/server_node.h"
#include "meter_invariants.h"
#include "net/transport.h"
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

struct TwoCacheHarness {
  workload::Trace trace = two_object_trace();
  net::LoopbackTransport transport;
  ServerNode server{&trace, &transport};
  CacheNode east{&trace, &server, &transport, "cache-east"};
  CacheNode west{&trace, &server, &transport, "cache-west"};
};

TEST(ServerNodeTest, AttachAssignsDistinctSlots) {
  TwoCacheHarness h;
  EXPECT_EQ(h.server.cache_count(), 2u);
  EXPECT_EQ(h.server.object_count(), 2u);
  EXPECT_EQ(h.transport.endpoint_count(), 3u);
  EXPECT_NE(h.east.transport_slot(), h.west.transport_slot());
  EXPECT_NE(h.east.transport_slot(), h.server.transport_slot());
  EXPECT_NE(h.west.transport_slot(), h.server.transport_slot());
}

// A slot attaches once, and the server's own slot never does. A cache
// cannot reuse a name either: the transport rejects the registration of a
// cache named like another cache or like the server, before any attach.
TEST(ServerNodeTest, DuplicateAttachIsCheckedFailure) {
  TwoCacheHarness h;
  EXPECT_THROW(h.server.attach_cache(h.east.transport_slot()),
               std::logic_error);
  EXPECT_THROW(h.server.attach_cache(h.server.transport_slot()),
               std::logic_error);
  for (const char* name : {"cache-east", "server"}) {
    EXPECT_THROW(CacheNode(&h.trace, &h.server, &h.transport, name),
                 std::logic_error)
        << name;
  }
  EXPECT_EQ(h.server.cache_count(), 2u);
  EXPECT_EQ(h.transport.endpoint_count(), 3u);
  // The failed attempts left both caches working.
  EXPECT_EQ(h.east.ship_query(h.trace.queries[0]).count(), 300);
}

TEST(ServerNodeTest, RegistrationIsPerCache) {
  TwoCacheHarness h;
  h.east.load_object(ObjectId{0});
  EXPECT_TRUE(h.east.is_registered(ObjectId{0}));
  EXPECT_FALSE(h.west.is_registered(ObjectId{0}));
  h.west.load_object(ObjectId{0});
  h.east.notify_eviction(ObjectId{0});
  EXPECT_FALSE(h.east.is_registered(ObjectId{0}));
  EXPECT_TRUE(h.west.is_registered(ObjectId{0}));
}

TEST(ServerNodeTest, InvalidationFanOutFollowsPerCacheSubscription) {
  TwoCacheHarness h;
  int east_notices = 0;
  int west_notices = 0;
  h.east.set_subscription(MetadataSubscription::kAll);
  h.east.set_invalidation_handler([&](const workload::Update& u) {
    ++east_notices;
    EXPECT_EQ(u.id, h.trace.updates[0].id);
  });
  h.west.set_subscription(MetadataSubscription::kRegisteredOnly);
  h.west.set_invalidation_handler(
      [&](const workload::Update&) { ++west_notices; });

  h.server.ingest_update(h.trace.updates[0]);  // object 1; west not loaded
  EXPECT_EQ(east_notices, 1);
  EXPECT_EQ(west_notices, 0);

  h.west.load_object(ObjectId{1});
  h.server.ingest_update(h.trace.updates[0]);
  EXPECT_EQ(east_notices, 2);
  EXPECT_EQ(west_notices, 1);

  h.west.notify_eviction(ObjectId{1});
  h.server.ingest_update(h.trace.updates[0]);
  EXPECT_EQ(east_notices, 3);
  EXPECT_EQ(west_notices, 1);
}

TEST(ServerNodeTest, UpdatesGrowTheSharedRepositoryOnce) {
  TwoCacheHarness h;
  h.server.ingest_update(h.trace.updates[0]);
  EXPECT_EQ(h.server.object_bytes(ObjectId{1}).count(), 2120);
  EXPECT_EQ(h.east.server_object_bytes(ObjectId{1}).count(), 2120);
  EXPECT_EQ(h.west.server_object_bytes(ObjectId{1}).count(), 2120);
}

TEST(ServerNodeTest, RepliesAreAccountedToTheRequestingEndpoint) {
  TwoCacheHarness h;
  h.east.ship_query(h.trace.queries[0]);   // 300 result bytes -> east
  h.west.ship_update(h.trace.updates[0]);  // 120 update bytes -> west
  h.west.load_object(ObjectId{0});         // 1000 + framing    -> west

  const net::TrafficMeter& east = h.east.meter();
  const net::TrafficMeter& west = h.west.meter();
  EXPECT_EQ(east.total(net::Mechanism::kQueryShip).count(), 300);
  EXPECT_EQ(east.total(net::Mechanism::kUpdateShip).count(), 0);
  EXPECT_EQ(west.total(net::Mechanism::kUpdateShip).count(), 120);
  EXPECT_EQ(west.total(net::Mechanism::kObjectLoad),
            Bytes{1000} + ServerNode::kLoadOverheadBytes);

  // Per-endpoint meters partition the aggregate, mechanism by mechanism.
  delta::testing::ExpectEndpointMetersPartitionAggregate(h.transport);
}

TEST(ServerNodeTest, RequestFromUnattachedCacheIsCheckedFailure) {
  workload::Trace trace = two_object_trace();
  net::LoopbackTransport transport;
  ServerNode server{&trace, &transport};
  // A rogue endpoint on the wire that never attached to the server.
  const std::size_t rogue =
      transport.register_endpoint("rogue", [](const net::Message&) {});
  net::Message msg;
  msg.kind = net::MessageKind::kLoadRequest;
  msg.subject_id = 0;
  msg.sender = static_cast<std::int32_t>(rogue);
  EXPECT_THROW(
      transport.send_to(server.transport_slot(), msg,
                        net::Mechanism::kOverhead),
      std::logic_error);
  // So is a request naming the server itself as its sender.
  msg.sender = static_cast<std::int32_t>(server.transport_slot());
  EXPECT_THROW(
      transport.send_to(server.transport_slot(), msg,
                        net::Mechanism::kOverhead),
      std::logic_error);
}

}  // namespace
}  // namespace delta::core
