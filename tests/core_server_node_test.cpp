// ServerNode/CacheNode unit tests: a server serves exactly one cache — the
// attach checks, the sender check on every request, and per-endpoint byte
// accounting on the shared transport. Subscription fan-out is covered by
// core_system_test.
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

struct Harness {
  workload::Trace trace = two_object_trace();
  net::LoopbackTransport transport;
  ServerNode server{&trace, &transport};
  CacheNode cache{&trace, &server, &transport, "cache-east"};
};

// A server attaches one cache, never its own slot, and never a second one:
// neither a second attach of any slot nor a second CacheNode. A cache
// cannot reuse a name either: the transport rejects a cache named like
// another cache or like a server before anything attaches.
TEST(ServerNodeTest, DuplicateAttachIsCheckedFailure) {
  Harness h;
  EXPECT_TRUE(h.server.has_cache());
  const std::size_t other =
      h.transport.register_endpoint("cache-west", [](const net::Message&) {});
  EXPECT_THROW(h.server.attach_cache(other), std::logic_error);
  EXPECT_THROW(h.server.attach_cache(h.cache.transport_slot()),
               std::logic_error);
  EXPECT_THROW(CacheNode(&h.trace, &h.server, &h.transport, "cache-north"),
               std::logic_error);

  ServerNode lone{&h.trace, &h.transport, "lone"};
  EXPECT_THROW(lone.attach_cache(lone.transport_slot()), std::logic_error);
  for (const char* name : {"cache-east", "server"}) {
    EXPECT_THROW(CacheNode(&h.trace, &lone, &h.transport, name),
                 std::logic_error)
        << name;
  }
  EXPECT_FALSE(lone.has_cache());
  // The rejected CacheNodes registered nothing: server, cache, cache-west
  // and lone.
  EXPECT_EQ(h.transport.endpoint_count(), 4u);
  // The failed attempts left the cache working.
  EXPECT_EQ(h.cache.ship_query(h.trace.queries[0]).count(), 300);
}

TEST(ServerNodeTest, RepliesAreAccountedToTheRequestingEndpoint) {
  Harness h;
  h.cache.ship_query(h.trace.queries[0]);   // 300 result bytes
  h.cache.ship_update(h.trace.updates[0]);  // 120 update bytes
  h.cache.load_object(ObjectId{0});         // 1000 + framing

  const net::TrafficMeter& cache = h.cache.meter();
  EXPECT_EQ(cache.total(net::Mechanism::kQueryShip).count(), 300);
  EXPECT_EQ(cache.total(net::Mechanism::kUpdateShip).count(), 120);
  EXPECT_EQ(cache.total(net::Mechanism::kObjectLoad),
            Bytes{1000} + ServerNode::kLoadOverheadBytes);
  // The server receives only the three requests: payload-free headers.
  const net::TrafficMeter& server = h.server.meter();
  EXPECT_EQ(server.figure_total(), Bytes{0});
  EXPECT_EQ(server.total(net::Mechanism::kOverhead),
            net::kMessageHeaderBytes * 3);

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
  // Still rejected once another endpoint is the attached cache.
  CacheNode cache{&trace, &server, &transport, "cache"};
  EXPECT_THROW(
      transport.send_to(server.transport_slot(), msg,
                        net::Mechanism::kOverhead),
      std::logic_error);
  EXPECT_FALSE(cache.is_registered(ObjectId{0}));
  // So is a request naming the server itself as its sender.
  msg.sender = static_cast<std::int32_t>(server.transport_slot());
  EXPECT_THROW(
      transport.send_to(server.transport_slot(), msg,
                        net::Mechanism::kOverhead),
      std::logic_error);
}

}  // namespace
}  // namespace delta::core
