#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "meter_invariants.h"
#include "net/link_model.h"
#include "net/message.h"
#include "net/traffic_meter.h"
#include "net/transport.h"

namespace delta::net {
namespace {

TEST(TrafficMeterTest, AccumulatesPerMechanism) {
  TrafficMeter m;
  m.record(Mechanism::kQueryShip, Bytes{100});
  m.record(Mechanism::kQueryShip, Bytes{50});
  m.record(Mechanism::kUpdateShip, Bytes{7});
  m.record(Mechanism::kObjectLoad, Bytes{1000});
  m.record(Mechanism::kOverhead, Bytes{64});
  EXPECT_EQ(m.total(Mechanism::kQueryShip).count(), 150);
  EXPECT_EQ(m.total(Mechanism::kUpdateShip).count(), 7);
  EXPECT_EQ(m.total(Mechanism::kObjectLoad).count(), 1000);
  EXPECT_EQ(m.message_count(Mechanism::kQueryShip), 2);
  // Figure totals exclude overhead, matching the paper's cost model.
  EXPECT_EQ(m.figure_total().count(), 1157);
}

TEST(TrafficMeterTest, ResetClears) {
  TrafficMeter m;
  m.record(Mechanism::kQueryShip, Bytes{5});
  m.reset();
  EXPECT_EQ(m.figure_total().count(), 0);
  EXPECT_EQ(m.message_count(Mechanism::kQueryShip), 0);
}

TEST(TrafficMeterTest, RejectsNegativeBytes) {
  TrafficMeter m;
  EXPECT_THROW(m.record(Mechanism::kQueryShip, Bytes{-1}), std::logic_error);
}

/// Registers an endpoint that ignores its deliveries; returns its slot.
std::size_t add_sink(Transport& t, const char* name) {
  return t.register_endpoint(name, [](const Message&) {});
}

/// A message from the endpoint at `sender`, carrying `payload`.
Message message_from(std::size_t sender, Bytes payload = Bytes{}) {
  Message m;
  m.sender = static_cast<std::int32_t>(sender);
  m.payload = payload;
  return m;
}

TEST(LoopbackTransportTest, DeliversToRegisteredEndpoint) {
  LoopbackTransport t;
  std::vector<Message> received;
  const std::size_t server = add_sink(t, "server");
  const std::size_t cache =
      t.register_endpoint("cache", [&](const Message& m) {
        received.push_back(m);
      });
  Message msg = message_from(server, Bytes{12345});
  msg.kind = MessageKind::kUpdateShip;
  msg.subject_id = 9;
  t.send_to(cache, msg, Mechanism::kUpdateShip);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].subject_id, 9);
  EXPECT_EQ(received[0].sender, static_cast<std::int32_t>(server));
  EXPECT_EQ(t.meter().total(Mechanism::kUpdateShip).count(), 12345);
  EXPECT_EQ(t.meter().total(Mechanism::kOverhead), kMessageHeaderBytes);
  EXPECT_EQ(t.delivered_count(), 1);
}

TEST(LoopbackTransportTest, UnknownEndpointThrows) {
  LoopbackTransport t;
  Message msg = message_from(0);
  EXPECT_THROW(t.send_to(0, msg, Mechanism::kQueryShip), std::logic_error);
}

// Both ends of a send must be registered slots: an unknown destination and
// an unset, negative or out-of-range sender are each a checked failure that
// leaves no accounting behind.
TEST(LoopbackTransportTest, UnregisteredSlotIsCheckedFailure) {
  LoopbackTransport t;
  const std::size_t cache = add_sink(t, "cache-0");
  Message from_cache = message_from(cache);
  EXPECT_THROW(t.send_to(cache + 1, from_cache, Mechanism::kUpdateShip),
               std::logic_error);
  for (const std::int32_t sender : {-1, -7, 1, 99}) {
    Message forged = message_from(cache);
    forged.sender = sender;
    EXPECT_THROW(t.send_to(cache, forged, Mechanism::kUpdateShip),
                 std::logic_error)
        << "sender " << sender;
  }
  // The failed deliveries must not have been accounted anywhere.
  EXPECT_EQ(t.meter().figure_total().count(), 0);
  EXPECT_EQ(t.meter().total(Mechanism::kOverhead).count(), 0);
  EXPECT_EQ(t.delivered_count(), 0);
}

TEST(LoopbackTransportTest, PerEndpointMetersPartitionTheAggregate) {
  LoopbackTransport t;
  const std::size_t server = add_sink(t, "server");
  const std::size_t cache0 = add_sink(t, "cache-0");
  const std::size_t cache1 = add_sink(t, "cache-1");
  Message msg = message_from(server, Bytes{1000});
  msg.kind = MessageKind::kQueryResult;
  t.send_to(cache0, msg, Mechanism::kQueryShip);
  msg.payload = Bytes{250};
  t.send_to(cache1, msg, Mechanism::kQueryShip);
  msg.kind = MessageKind::kUpdateShip;
  msg.payload = Bytes{77};
  t.send_to(cache1, msg, Mechanism::kUpdateShip);
  msg = message_from(cache0);
  msg.kind = MessageKind::kLoadRequest;
  t.send_to(server, msg, Mechanism::kOverhead);

  // Destination-keyed: each endpoint saw exactly its deliveries.
  EXPECT_EQ(t.endpoint_meter(cache0).total(Mechanism::kQueryShip).count(),
            1000);
  EXPECT_EQ(t.endpoint_meter(cache1).total(Mechanism::kQueryShip).count(),
            250);
  EXPECT_EQ(t.endpoint_meter(cache1).total(Mechanism::kUpdateShip).count(),
            77);
  EXPECT_EQ(t.endpoint_meter(server).figure_total().count(), 0);

  // Partition property: per-endpoint totals sum exactly to the aggregate,
  // mechanism by mechanism, bytes and message counts alike.
  ASSERT_EQ(t.endpoint_count(), 3u);
  delta::testing::ExpectEndpointMetersPartitionAggregate(t);
}

// The meter's concurrency contract (single writer, concurrent readers):
// each of 8 worker threads hammers its OWN meter — the confinement model
// both simulation engines use — while a reader thread concurrently sums
// all meters. After the join barrier every per-meter total is exact, and
// the reader must only ever have seen untorn, monotonically-growing
// values. (Concurrent writers to one meter are explicitly NOT supported;
// the parallel engine folds per-worker meters after its barrier instead.)
TEST(TrafficMeterTest, SingleWriterMetersAreExactUnderConcurrentReads) {
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 50'000;
  std::array<TrafficMeter, kThreads> meters;
  std::atomic<bool> done{false};

  std::thread reader{[&] {
    // Concurrent reads must see untorn values: with each writer adding
    // bytes in 1..7, any torn read would show up as a wildly out-of-range
    // total. Monotonicity per (meter, mechanism) is the observable
    // guarantee of the relaxed stores.
    std::array<std::array<std::int64_t, kMechanismCount>, kThreads> last{};
    while (!done.load(std::memory_order_acquire)) {
      for (int t = 0; t < kThreads; ++t) {
        for (std::size_t i = 0; i < kMechanismCount; ++i) {
          const auto mech = static_cast<Mechanism>(i);
          const std::int64_t now = meters[static_cast<std::size_t>(t)]
                                       .total(mech)
                                       .count();
          ASSERT_GE(now, last[static_cast<std::size_t>(t)][i]);
          ASSERT_LE(now, kPerThread * 7);
          last[static_cast<std::size_t>(t)][i] = now;
        }
      }
    }
  }};

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    writers.emplace_back([&meters, tid] {
      TrafficMeter& m = meters[static_cast<std::size_t>(tid)];
      for (std::int64_t i = 0; i < kPerThread; ++i) {
        const auto mech = static_cast<Mechanism>((tid + i) % kMechanismCount);
        m.record(mech, Bytes{1 + (i % 7)});
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  // Fold after the barrier, exactly as the parallel engine merges
  // per-worker meters: the closed-form totals must be exact.
  std::int64_t total_bytes = 0;
  std::int64_t total_count = 0;
  for (const TrafficMeter& m : meters) {
    for (std::size_t i = 0; i < kMechanismCount; ++i) {
      const auto mech = static_cast<Mechanism>(i);
      total_bytes += m.total(mech).count();
      total_count += m.message_count(mech);
      EXPECT_EQ(m.message_count(mech),
                kPerThread / static_cast<std::int64_t>(kMechanismCount))
          << to_string(mech);
    }
  }
  std::int64_t expected_bytes = 0;
  for (std::int64_t i = 0; i < kPerThread; ++i) expected_bytes += 1 + (i % 7);
  EXPECT_EQ(total_bytes, expected_bytes * kThreads);
  EXPECT_EQ(total_count, kThreads * kPerThread);
}

// Each slot's meter holds exactly that endpoint's deliveries; an
// unregistered slot has no meter.
TEST(LoopbackTransportTest, EndpointMeterIsPerSlot) {
  LoopbackTransport t;
  const std::size_t cache = add_sink(t, "cache");
  const std::size_t other = add_sink(t, "other");
  Message msg = message_from(other, Bytes{500});
  t.send_to(cache, msg, Mechanism::kObjectLoad);
  EXPECT_EQ(t.endpoint_meter(cache).total(Mechanism::kObjectLoad).count(),
            500);
  EXPECT_EQ(t.endpoint_meter(other).figure_total().count(), 0);
  EXPECT_THROW((void)t.endpoint_meter(std::size_t{99}), std::logic_error);
}

// A name is registered once: a second registration under it is a checked
// failure that neither replaces the first handler nor adds a slot.
TEST(LoopbackTransportTest, DuplicateNameIsCheckedFailure) {
  LoopbackTransport t;
  int first = 0;
  int second = 0;
  const std::size_t server =
      t.register_endpoint("server", [&](const Message&) { ++first; });
  EXPECT_THROW(
      t.register_endpoint("server", [&](const Message&) { ++second; }),
      std::logic_error);
  EXPECT_EQ(t.endpoint_count(), 1u);
  Message msg = message_from(server);
  t.send_to(server, msg, Mechanism::kQueryShip);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
}

TEST(LinkModelTest, TransferTimeScalesLinearly) {
  const LinkModel link{1e6, 0.01};  // 1 MB/s, 10 ms RTT
  EXPECT_NEAR(link.transfer_seconds(Bytes{0}), 0.01, 1e-12);
  EXPECT_NEAR(link.transfer_seconds(Bytes{1'000'000}), 1.01, 1e-9);
  // Linear in size: the paper's proportional-cost assumption.
  const double t1 = link.transfer_seconds(Bytes{500'000});
  const double t2 = link.transfer_seconds(Bytes{1'000'000});
  EXPECT_NEAR(t2 - t1, 0.5, 1e-9);
}

TEST(MessageKindTest, NamesAreStable) {
  EXPECT_STREQ(to_string(MessageKind::kQueryRequest), "query_request");
  EXPECT_STREQ(to_string(Mechanism::kObjectLoad), "object_load");
}

}  // namespace
}  // namespace delta::net
