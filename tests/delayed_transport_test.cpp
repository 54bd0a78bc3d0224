// DelayedTransport: latency formula, FIFO-per-direction with serialization
// occupancy, the two directions not queueing behind each other,
// delivery-time metering, uplink contention stats, the end meters
// accounting every delivery exactly once, and the checks on binding and
// on sending over a wire that is not fully bound.
#include "net/delayed_transport.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "util/event_queue.h"

namespace delta::net {
namespace {

struct Delivery {
  End to = End::kServer;
  Message message;
  double at = 0.0;
};

/// Queue + transport + recording ends, shared by the tests.
struct Harness {
  util::EventQueue events;
  DelayedTransport transport;
  std::vector<Delivery> deliveries;

  explicit Harness(LinkModel link = LinkModel{}) : transport(&events, link) {}

  void bind(End end, const std::string& name) {
    transport.bind(end, name, [this, end](const Message& m) {
      deliveries.push_back(Delivery{end, m, events.now()});
    });
  }
  void bind_both() {
    bind(End::kServer, "server");
    bind(End::kCache, "cache");
  }

  static Message message_with(Bytes payload) {
    Message m;
    m.kind = MessageKind::kControl;
    m.payload = payload;
    return m;
  }

  /// Sends `payload` bytes to `to`, from the other end.
  void send(End to, Bytes payload,
            Mechanism mechanism = Mechanism::kQueryShip) {
    Message m = message_with(payload);
    transport.send(to, m, mechanism);
  }
};

TEST(DelayedTransportTest, DeliversAfterSerializationPlusPropagation) {
  Harness h{LinkModel{1e6, 0.020}};  // 1 MB/s, 20 ms RTT
  h.bind_both();
  h.send(End::kCache, Bytes{999'936});
  EXPECT_EQ(h.events.pending(), 1u);
  EXPECT_TRUE(h.deliveries.empty());  // nothing moves until the clock does
  h.events.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.deliveries[0].to, End::kCache);
  // (999936 + 64 header) / 1e6 B/s = 1.0 s serialization, + RTT/2 = 10 ms.
  EXPECT_NEAR(h.deliveries[0].at, 1.010, 1e-12);
  EXPECT_EQ(h.deliveries[0].message.sim_sent_at, 0.0);
  EXPECT_NEAR(h.deliveries[0].message.sim_delivered_at, 1.010, 1e-12);
  EXPECT_TRUE(h.events.empty());
}

// Back-to-back sends in one direction serialize one after the other
// (occupancy) and arrive in send order.
TEST(DelayedTransportTest, FifoPerDirectionWithSerializationOccupancy) {
  Harness h{LinkModel{1e6, 0.020}};
  h.bind_both();
  Message first = Harness::message_with(Bytes{999'936});
  first.subject_id = 1;
  Message second = Harness::message_with(Bytes{499'936});
  second.subject_id = 2;
  h.transport.send(End::kCache, first, Mechanism::kQueryShip);
  h.transport.send(End::kCache, second, Mechanism::kQueryShip);
  // 1.5 s of serialization is queued out of the server, none out of the
  // cache.
  EXPECT_NEAR(h.transport.egress_backlog_seconds(End::kServer), 1.5, 1e-12);
  EXPECT_EQ(h.transport.egress_backlog_seconds(End::kCache), 0.0);
  h.events.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 2u);
  EXPECT_EQ(h.deliveries[0].message.subject_id, 1);
  EXPECT_EQ(h.deliveries[1].message.subject_id, 2);
  EXPECT_NEAR(h.deliveries[0].at, 1.010, 1e-12);
  // The second departs only after the first's 1.0 s serialization.
  EXPECT_NEAR(h.deliveries[1].at, 1.0 + 0.5 + 0.010, 1e-12);

  const UplinkStats& uplink = h.transport.uplink_stats(End::kServer);
  EXPECT_EQ(uplink.sends, 2);
  EXPECT_NEAR(uplink.busy_seconds, 1.5, 1e-12);
  EXPECT_NEAR(uplink.total_queue_wait, 1.0, 1e-12);  // second waited 1.0 s
  EXPECT_NEAR(uplink.max_queue_wait, 1.0, 1e-12);
  EXPECT_EQ(h.transport.uplink_stats(End::kCache).sends, 0);
}

// The two directions do not share occupancy: a send each way departs
// immediately, and both run over the one link model.
TEST(DelayedTransportTest, DirectionsDoNotQueueBehindEachOther) {
  Harness h{LinkModel{1e6, 0.020}};
  h.bind_both();
  h.send(End::kCache, Bytes{999'936});
  h.send(End::kServer, Bytes{999'936});
  h.events.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 2u);
  for (const Delivery& d : h.deliveries) EXPECT_NEAR(d.at, 1.010, 1e-12);
  for (const End from : {End::kServer, End::kCache}) {
    EXPECT_EQ(h.transport.uplink_stats(from).sends, 1);
    EXPECT_EQ(h.transport.uplink_stats(from).total_queue_wait, 0.0);
  }
}

TEST(DelayedTransportTest, ZeroLatencyLinkDeliversAtTheSendInstant) {
  Harness h{LinkModel::zero_latency()};
  h.bind_both();
  h.send(End::kCache, 1_GiB, Mechanism::kObjectLoad);
  h.events.run_ready();  // due at now == 0
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.deliveries[0].at, 0.0);
}

// Meters are charged at delivery, not send: traffic in flight is invisible
// to the warm-up boundary snapshots.
TEST(DelayedTransportTest, MetersChargeAtDeliveryTime) {
  Harness h{LinkModel{1e6, 0.020}};
  h.bind_both();
  h.send(End::kCache, Bytes{1000});
  EXPECT_EQ(h.transport.endpoint_meter(End::kCache).total(
                Mechanism::kQueryShip),
            Bytes{0});
  h.events.run_until_idle();
  EXPECT_EQ(h.transport.endpoint_meter(End::kCache).total(
                Mechanism::kQueryShip),
            Bytes{1000});
  EXPECT_EQ(h.transport.endpoint_meter(End::kServer).figure_total(),
            Bytes{0});
}

// A burst both ways across mechanisms preserves the accounting contract:
// every delivered message lands in exactly one end meter, so the two
// meters' sums reproduce what was sent, mechanism by mechanism, bytes and
// message counts alike.
TEST(DelayedTransportTest, EndMetersAccountEveryDeliveryAfterBurst) {
  Harness h{LinkModel{1e6, 0.080}};
  h.bind_both();
  std::array<Bytes, kMechanismCount> sent_bytes{};
  std::array<std::int64_t, kMechanismCount> sent_count{};
  const auto add = [&](Mechanism mech, Bytes bytes) {
    sent_bytes[static_cast<std::size_t>(mech)] += bytes;
    ++sent_count[static_cast<std::size_t>(mech)];
  };
  int seq = 0;
  for (int round = 0; round < 30; ++round) {
    for (const End to : {End::kServer, End::kCache}) {
      const Mechanism mech =
          seq % 3 == 0 ? Mechanism::kQueryShip : Mechanism::kUpdateShip;
      const Bytes payload{1000 + 17 * seq};
      h.send(to, payload, mech);
      add(mech, payload);
      add(Mechanism::kOverhead, kMessageHeaderBytes);
      ++seq;
    }
  }
  h.events.run_until_idle();
  EXPECT_EQ(h.transport.delivered_count(), seq);
  for (std::size_t i = 0; i < kMechanismCount; ++i) {
    const auto mech = static_cast<Mechanism>(i);
    const TrafficMeter& server = h.transport.endpoint_meter(End::kServer);
    const TrafficMeter& cache = h.transport.endpoint_meter(End::kCache);
    EXPECT_EQ(server.total(mech) + cache.total(mech), sent_bytes[i])
        << to_string(mech);
    EXPECT_EQ(server.message_count(mech) + cache.message_count(mech),
              sent_count[i])
        << to_string(mech);
  }
}

TEST(DelayedTransportTest, DeliveryObserverSeesStampedMessages) {
  Harness h{LinkModel{1e6, 0.020}};
  h.bind_both();
  std::vector<std::pair<End, double>> observed;
  h.transport.set_delivery_observer(
      [](void* ctx, const Message& m, End to) {
        static_cast<std::vector<std::pair<End, double>>*>(ctx)->emplace_back(
            to, m.sim_delivered_at - m.sim_sent_at);
      },
      &observed);
  h.send(End::kServer, Bytes{999'936});
  h.events.run_until_idle();
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(observed[0].first, End::kServer);
  EXPECT_NEAR(observed[0].second, 1.010, 1e-12);
}

// A send needs both ends bound: to an unbound end, or from one, it is a
// checked failure that puts nothing on the wire. Each end binds once, and
// not under the other end's name.
TEST(DelayedTransportTest, UnboundWireAndSecondBindAreCheckedFailures) {
  Harness h;
  h.bind(End::kServer, "server");
  EXPECT_THROW(h.send(End::kCache, Bytes{1}, Mechanism::kOverhead),
               std::logic_error);
  EXPECT_THROW(h.send(End::kServer, Bytes{1}, Mechanism::kOverhead),
               std::logic_error);
  EXPECT_TRUE(h.events.empty());
  EXPECT_EQ(h.transport.uplink_stats(End::kServer).sends, 0);
  EXPECT_EQ(h.transport.uplink_stats(End::kCache).sends, 0);
  EXPECT_THROW(h.bind(End::kServer, "server-2"), std::logic_error);
  EXPECT_THROW(h.bind(End::kCache, "server"), std::logic_error);
  h.bind(End::kCache, "cache");
  EXPECT_THROW(h.bind(End::kCache, "cache-2"), std::logic_error);
  h.send(End::kCache, Bytes{1});
  h.events.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.deliveries[0].to, End::kCache);
}

}  // namespace
}  // namespace delta::net
