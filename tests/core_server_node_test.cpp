// ServerNode/CacheNode unit tests: a server and its one cache hold the two
// ends of one wire — the bind checks that keep a second cache (or server)
// off it, the wire's refusal to carry a request before the cache binds,
// and per-end byte accounting. Subscription fan-out is covered by
// core_system_test.
#include <gtest/gtest.h>

#include <vector>

#include "core/cache_node.h"
#include "core/delta_system.h"
#include "core/server_node.h"
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
  CacheNode cache{&trace, &server, "cache-east"};
};

// A wire holds one server and one cache: a second CacheNode on the server,
// or a second ServerNode on its transport, is a checked failure, and so is
// a cache named like its server.
TEST(ServerNodeTest, SecondCacheOrServerIsCheckedFailure) {
  Harness h;
  EXPECT_THROW(CacheNode(&h.trace, &h.server, "cache-north"),
               std::logic_error);
  EXPECT_THROW(ServerNode(&h.trace, &h.transport, "server-2"),
               std::logic_error);

  net::LoopbackTransport wire;
  ServerNode lone{&h.trace, &wire, "lone"};
  EXPECT_THROW(CacheNode(&h.trace, &lone, "lone"), std::logic_error);
  // The rejected CacheNode bound nothing: a cache can still join.
  CacheNode joined{&h.trace, &lone, "cache-west"};
  EXPECT_EQ(joined.ship_query(h.trace.queries[0]).count(), 300);
  // The failed attempts left the first pair working.
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
}

// DeltaSystem's meter is the fold of its two end meters: bytes and
// message counts, mechanism by mechanism.
TEST(ServerNodeTest, SystemMeterFoldsBothEnds) {
  const workload::Trace trace = two_object_trace();
  DeltaSystem system{&trace};
  system.cache().ship_query(trace.queries[0]);
  system.cache().load_object(ObjectId{1});
  system.cache().notify_eviction(ObjectId{1});
  const net::TrafficMeter all = system.meter();
  const net::TrafficMeter& cache = system.cache().meter();
  const net::TrafficMeter& server = system.server().meter();
  for (std::size_t i = 0; i < net::kMechanismCount; ++i) {
    const auto mech = static_cast<net::Mechanism>(i);
    EXPECT_EQ(all.total(mech), cache.total(mech) + server.total(mech))
        << net::to_string(mech);
    EXPECT_EQ(all.message_count(mech),
              cache.message_count(mech) + server.message_count(mech))
        << net::to_string(mech);
  }
  // Two requests and an eviction notice reached the server, each metering
  // its (empty) payload and its header as overhead; two replies reached
  // the cache, each metering its header.
  EXPECT_EQ(server.message_count(net::Mechanism::kOverhead), 6);
  EXPECT_EQ(all.message_count(net::Mechanism::kOverhead), 8);
  EXPECT_EQ(all.total(net::Mechanism::kQueryShip).count(), 300);
}

// Until a cache binds, the server's wire carries nothing: a request sent
// to the server end is a checked failure that reaches no handler.
TEST(ServerNodeTest, RequestBeforeCacheBindsIsCheckedFailure) {
  workload::Trace trace = two_object_trace();
  net::LoopbackTransport transport;
  ServerNode server{&trace, &transport};
  net::Message msg;
  msg.kind = net::MessageKind::kLoadRequest;
  msg.subject_id = 0;
  EXPECT_THROW(transport.send(net::End::kServer, msg,
                              net::Mechanism::kOverhead),
               std::logic_error);
  EXPECT_FALSE(server.is_registered(ObjectId{0}));
  EXPECT_EQ(server.meter().message_count(net::Mechanism::kOverhead), 0);
  CacheNode cache{&trace, &server};
  cache.load_object(ObjectId{0});
  EXPECT_TRUE(server.is_registered(ObjectId{0}));
}

}  // namespace
}  // namespace delta::core
