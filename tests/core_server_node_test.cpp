// ServerNode/CacheNode unit tests: a server and its one cache hold the two
// ends of one wire — the bind checks that keep a second cache (or server)
// off it, the wire's refusal to carry a request before the cache binds,
// per-end byte accounting, and the ledger spans notices travel as, which
// must survive a server crash while in flight. Subscription fan-out is
// covered by core_system_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/cache_node.h"
#include "core/delta_system.h"
#include "core/server_node.h"
#include "net/delayed_transport.h"
#include "net/transport.h"
#include "trace_builder.h"
#include "util/event_queue.h"

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

/// What one message delivered to the cache carried: its kind and subject,
/// and the ids and ingest stamps its batch span resolved to on delivery.
struct Carried {
  net::MessageKind kind = net::MessageKind::kControl;
  std::int64_t subject = -1;
  std::vector<std::int64_t> ids;
  std::vector<double> stamps;
};

struct DeliveryLog {
  const net::Transport* wire = nullptr;
  std::vector<Carried> to_cache;

  static void record(void* self, const net::Message& m, net::End to) {
    auto& log = *static_cast<DeliveryLog*>(self);
    if (to != net::End::kCache) return;
    Carried c{m.kind, m.subject_id, {}, {}};
    const std::vector<net::LedgerEntry>& ledger =
        log.wire->ledger(net::End::kServer);
    for (std::uint32_t i = m.batch_from; i < m.batch_to; ++i) {
      c.ids.push_back(ledger[i].id);
      c.stamps.push_back(ledger[i].ingest_at);
    }
    log.to_cache.push_back(std::move(c));
  }

  /// The first delivered message of `kind` whose span is not empty.
  [[nodiscard]] const Carried* first_batch(net::MessageKind kind) const {
    for (const Carried& c : to_cache) {
      if (c.kind == kind && !c.ids.empty()) return &c;
    }
    return nullptr;
  }
};

// A merged kInvalidation and a kResyncData are in flight when the server
// crashes and restarts; the restarted server then logs new notices. Each
// message still resolves to the ids and ingest stamps it was sent with,
// because the wire's ledger outlives the server's bookkeeping, and the
// cache applies every notice exactly once.
TEST(ServerNodeTest, SpansInFlightAcrossServerCrashKeepTheirIds) {
  TraceBuilder b{{1000, 2000, 3000}};
  for (int i = 0; i < 6; ++i) b.update(i % 3, 100);
  const workload::Trace trace = b.build();
  util::EventQueue events;
  // 100 kB/s: a 64-byte header holds the link for 0.64 ms.
  net::DelayedTransport wire{&events, net::LinkModel{1e5, 0.040}};
  ServerNode server{&trace, &wire};
  CacheNode cache{&trace, &server};
  ProtocolOptions protocol;
  protocol.enabled = true;
  server.set_protocol(protocol);
  server.set_notice_batching({true, 0.0});
  cache.set_protocol(protocol, /*probe_on_suspect=*/false);
  cache.set_subscription(MetadataSubscription::kAll);
  std::vector<std::int64_t> applied;
  cache.set_invalidation_handler(
      [&applied](const workload::Update& u) {
        applied.push_back(u.id.value());
      });
  DeliveryLog log{&wire, {}};
  wire.set_delivery_observer(&DeliveryLog::record, &log);

  // Update 0 leaves alone on the idle link; updates 1-3, ingested while
  // its header still serializes, are held and flushed as one message:
  // subject 1 with the span {2, 3}.
  std::vector<double> ingested_at;
  for (std::size_t i = 0; i < 4; ++i) {
    ingested_at.push_back(0.0001 * static_cast<double>(i));
    events.fast_forward(ingested_at.back());
    server.ingest_update(trace.updates[i]);
  }
  server.flush_pending_notices();
  // The recovery's kResyncData replays the whole log, {0, 1, 2, 3}.
  cache.begin_recovery();
  events.pump_until([&] { return server.counters().resyncs_served == 1; });
  ASSERT_EQ(log.first_batch(net::MessageKind::kInvalidation), nullptr)
      << "the merged notice must still be in flight at the crash";
  ASSERT_EQ(log.first_batch(net::MessageKind::kResyncData), nullptr);

  server.crash_restart(0.0);
  cache.set_subscription(MetadataSubscription::kAll);
  server.ingest_update(trace.updates[4]);
  server.ingest_update(trace.updates[5]);
  server.flush_pending_notices();
  events.run_until_idle();

  const Carried* merged = log.first_batch(net::MessageKind::kInvalidation);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->subject, 1);
  EXPECT_EQ(merged->ids, (std::vector<std::int64_t>{2, 3}));
  EXPECT_EQ(merged->stamps,
            (std::vector<double>{ingested_at[2], ingested_at[3]}));
  const Carried* replay = log.first_batch(net::MessageKind::kResyncData);
  ASSERT_NE(replay, nullptr);
  EXPECT_EQ(replay->ids, (std::vector<std::int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(replay->stamps, ingested_at);
  // Every notice, pre- and post-crash, is applied exactly once; the
  // replays of the ones that did arrive are suppressed as duplicates.
  std::sort(applied.begin(), applied.end());
  EXPECT_EQ(applied, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_GE(cache.counters().replayed_notices, 4);
  EXPECT_EQ(cache.counters().duplicate_notices_suppressed,
            cache.counters().replayed_notices);
}

}  // namespace
}  // namespace delta::core
