// DelayedTransport: latency formula, FIFO-per-link with serialization
// occupancy, delivery-time metering, uplink contention stats, the
// per-endpoint meters accounting every delivery exactly once, and the
// checks on the slots a send names.
#include "net/delayed_transport.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "util/event_queue.h"

namespace delta::net {
namespace {

struct Delivery {
  std::string endpoint;
  Message message;
  double at = 0.0;
};

/// Queue + transport + recording endpoints, shared by the tests.
struct Harness {
  util::EventQueue events;
  DelayedTransport transport{&events};
  std::vector<Delivery> deliveries;

  explicit Harness(LinkModel default_link = LinkModel{})
      : transport(&events, default_link) {}

  std::size_t add_endpoint(const std::string& name) {
    return transport.register_endpoint(name, [this, name](const Message& m) {
      deliveries.push_back(Delivery{name, m, events.now()});
    });
  }

  static Message message_from(std::size_t sender, Bytes payload) {
    Message m;
    m.kind = MessageKind::kControl;
    m.payload = payload;
    m.sender = static_cast<std::int32_t>(sender);
    return m;
  }

  /// Sends `payload` bytes from slot `from` to slot `to`.
  void send(std::size_t from, std::size_t to, Bytes payload,
            Mechanism mechanism = Mechanism::kQueryShip) {
    Message m = message_from(from, payload);
    transport.send_to(to, m, mechanism);
  }
};

TEST(DelayedTransportTest, DeliversAfterSerializationPlusPropagation) {
  Harness h{LinkModel{1e6, 0.020}};  // 1 MB/s, 20 ms RTT
  const std::size_t a = h.add_endpoint("a");
  const std::size_t b = h.add_endpoint("b");
  h.send(a, b, Bytes{999'936});
  EXPECT_EQ(h.transport.in_flight(), 1);
  EXPECT_TRUE(h.deliveries.empty());  // nothing moves until the clock does
  h.events.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 1u);
  // (999936 + 64 header) / 1e6 B/s = 1.0 s serialization, + RTT/2 = 10 ms.
  EXPECT_NEAR(h.deliveries[0].at, 1.010, 1e-12);
  EXPECT_EQ(h.deliveries[0].message.sim_sent_at, 0.0);
  EXPECT_NEAR(h.deliveries[0].message.sim_delivered_at, 1.010, 1e-12);
  EXPECT_EQ(h.transport.in_flight(), 0);
}

// Back-to-back sends on the same directed link serialize one after the
// other (occupancy) and arrive in send order.
TEST(DelayedTransportTest, FifoPerLinkWithSerializationOccupancy) {
  Harness h{LinkModel{1e6, 0.020}};
  const std::size_t a = h.add_endpoint("a");
  const std::size_t b = h.add_endpoint("b");
  Message first = Harness::message_from(a, Bytes{999'936});
  first.subject_id = 1;
  Message second = Harness::message_from(a, Bytes{499'936});
  second.subject_id = 2;
  h.transport.send_to(b, first, Mechanism::kQueryShip);
  h.transport.send_to(b, second, Mechanism::kQueryShip);
  h.events.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 2u);
  EXPECT_EQ(h.deliveries[0].message.subject_id, 1);
  EXPECT_EQ(h.deliveries[1].message.subject_id, 2);
  EXPECT_NEAR(h.deliveries[0].at, 1.010, 1e-12);
  // The second departs only after the first's 1.0 s serialization.
  EXPECT_NEAR(h.deliveries[1].at, 1.0 + 0.5 + 0.010, 1e-12);

  const UplinkStats& uplink = h.transport.uplink_stats(a);
  EXPECT_EQ(uplink.sends, 2);
  EXPECT_NEAR(uplink.busy_seconds, 1.5, 1e-12);
  EXPECT_NEAR(uplink.total_queue_wait, 1.0, 1e-12);  // second waited 1.0 s
  EXPECT_NEAR(uplink.max_queue_wait, 1.0, 1e-12);
}

// Distinct directed links do not share occupancy: a->b and a->c (and b->a)
// all depart immediately.
TEST(DelayedTransportTest, DistinctLinksDoNotQueueBehindEachOther) {
  Harness h{LinkModel{1e6, 0.020}};
  const std::size_t a = h.add_endpoint("a");
  const std::size_t b = h.add_endpoint("b");
  const std::size_t c = h.add_endpoint("c");
  h.send(a, b, Bytes{999'936});
  h.send(a, c, Bytes{999'936});
  h.send(b, a, Bytes{999'936});
  h.events.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 3u);
  for (const Delivery& d : h.deliveries) EXPECT_NEAR(d.at, 1.010, 1e-12);
}

TEST(DelayedTransportTest, PerLinkConfigurationOverridesDefault) {
  Harness h{LinkModel{1e6, 0.020}};
  const std::size_t a = h.add_endpoint("a");
  const std::size_t b = h.add_endpoint("b");
  const std::size_t c = h.add_endpoint("c");
  h.transport.set_link(a, c, LinkModel{2e6, 0.100});
  h.send(a, b, Bytes{999'936});
  h.send(a, c, Bytes{999'936});
  h.events.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 2u);
  EXPECT_EQ(h.deliveries[0].endpoint, "c");  // faster wire, despite the RTT
  EXPECT_NEAR(h.deliveries[0].at, 0.5 + 0.050, 1e-12);
  EXPECT_EQ(h.deliveries[1].endpoint, "b");
  EXPECT_NEAR(h.deliveries[1].at, 1.010, 1e-12);
}

TEST(DelayedTransportTest, ZeroLatencyLinkDeliversAtTheSendInstant) {
  Harness h{LinkModel::zero_latency()};
  const std::size_t a = h.add_endpoint("a");
  const std::size_t b = h.add_endpoint("b");
  h.send(a, b, 1_GiB, Mechanism::kObjectLoad);
  h.events.run_ready();  // due at now == 0
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.deliveries[0].at, 0.0);
}

// Meters are charged at delivery, not send: traffic in flight is invisible
// to the warm-up boundary snapshots.
TEST(DelayedTransportTest, MetersChargeAtDeliveryTime) {
  Harness h{LinkModel{1e6, 0.020}};
  const std::size_t a = h.add_endpoint("a");
  const std::size_t b = h.add_endpoint("b");
  h.send(a, b, Bytes{1000});
  EXPECT_EQ(h.transport.endpoint_meter(b).total(Mechanism::kQueryShip),
            Bytes{0});
  h.events.run_until_idle();
  EXPECT_EQ(h.transport.endpoint_meter(b).total(Mechanism::kQueryShip),
            Bytes{1000});
  EXPECT_EQ(h.transport.endpoint_meter(a).figure_total(), Bytes{0});
}

// A scattered burst across several links and mechanisms preserves the
// accounting contract: every delivered message lands in exactly one
// endpoint meter, so the meters' sums reproduce what was sent, mechanism
// by mechanism, bytes and message counts alike.
TEST(DelayedTransportTest, EndpointMetersPartitionAggregateAfterBurst) {
  Harness h{LinkModel{1e7, 0.004}};
  const std::size_t server = h.add_endpoint("server");
  h.add_endpoint("cache-0");
  const std::size_t cache1 = h.add_endpoint("cache-1");
  h.transport.set_duplex_link(server, cache1, LinkModel{1e6, 0.080});
  std::array<Bytes, kMechanismCount> sent_bytes{};
  std::array<std::int64_t, kMechanismCount> sent_count{};
  const auto add = [&](Mechanism mech, Bytes bytes) {
    sent_bytes[static_cast<std::size_t>(mech)] += bytes;
    ++sent_count[static_cast<std::size_t>(mech)];
  };
  int seq = 0;
  for (int round = 0; round < 20; ++round) {
    for (std::size_t from = 0; from < 3; ++from) {
      for (std::size_t to = 0; to < 3; ++to) {
        if (from == to) continue;
        const Mechanism mech =
            seq % 3 == 0 ? Mechanism::kQueryShip : Mechanism::kUpdateShip;
        const Bytes payload{1000 + 17 * seq};
        h.send(from, to, payload, mech);
        add(mech, payload);
        add(Mechanism::kOverhead, kMessageHeaderBytes);
        ++seq;
      }
    }
  }
  h.events.run_until_idle();
  EXPECT_EQ(h.transport.delivered_count(), seq);
  ASSERT_EQ(h.transport.endpoint_count(), 3u);
  for (std::size_t i = 0; i < kMechanismCount; ++i) {
    const auto mech = static_cast<Mechanism>(i);
    Bytes bytes;
    std::int64_t count = 0;
    for (std::size_t slot = 0; slot < 3; ++slot) {
      bytes += h.transport.endpoint_meter(slot).total(mech);
      count += h.transport.endpoint_meter(slot).message_count(mech);
    }
    EXPECT_EQ(bytes, sent_bytes[i]) << to_string(mech);
    EXPECT_EQ(count, sent_count[i]) << to_string(mech);
  }
}

TEST(DelayedTransportTest, DeliveryObserverSeesStampedMessages) {
  Harness h{LinkModel{1e6, 0.020}};
  const std::size_t a = h.add_endpoint("a");
  const std::size_t b_slot = h.add_endpoint("b");
  std::vector<std::pair<std::size_t, double>> observed;
  h.transport.set_delivery_observer(
      [](void* ctx, const Message& m, std::size_t slot) {
        static_cast<std::vector<std::pair<std::size_t, double>>*>(ctx)
            ->emplace_back(slot, m.sim_delivered_at - m.sim_sent_at);
      },
      &observed);
  h.send(a, b_slot, Bytes{999'936});
  h.events.run_until_idle();
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(observed[0].first, b_slot);
  EXPECT_NEAR(observed[0].second, 1.010, 1e-12);
}

// A send names two slots, and both must be registered: an unknown
// destination and an unset, negative or out-of-range sender are each a
// checked failure that puts nothing on the wire. Names are unique per
// transport: registering one twice is a checked failure that adds no slot.
TEST(DelayedTransportTest, UnknownDestinationIsACheckedFailure) {
  Harness h;
  const std::size_t a = h.add_endpoint("a");
  EXPECT_THROW(h.send(a, a + 1, Bytes{1}, Mechanism::kOverhead),
               std::logic_error);
  for (const std::int32_t sender : {-1, -7, 1, 99}) {
    Message forged = Harness::message_from(a, Bytes{1});
    forged.sender = sender;
    EXPECT_THROW(h.transport.send_to(a, forged, Mechanism::kOverhead),
                 std::logic_error)
        << "sender " << sender;
  }
  EXPECT_EQ(h.transport.in_flight(), 0);
  EXPECT_EQ(h.transport.uplink_stats(a).sends, 0);
  EXPECT_THROW(h.add_endpoint("a"), std::logic_error);
  EXPECT_EQ(h.transport.endpoint_count(), 1u);
}

}  // namespace
}  // namespace delta::net
