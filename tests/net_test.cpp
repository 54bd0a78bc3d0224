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

TEST(LoopbackTransportTest, DeliversToRegisteredEndpoint) {
  LoopbackTransport t;
  std::vector<Message> received;
  t.register_endpoint("cache", [&](const Message& m) {
    received.push_back(m);
  });
  Message msg;
  msg.kind = MessageKind::kUpdateShip;
  msg.payload = Bytes{12345};
  msg.subject_id = 9;
  t.send("cache", msg, Mechanism::kUpdateShip);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].subject_id, 9);
  EXPECT_EQ(t.meter().total(Mechanism::kUpdateShip).count(), 12345);
  EXPECT_EQ(t.meter().total(Mechanism::kOverhead), kMessageHeaderBytes);
  EXPECT_EQ(t.delivered_count(), 1);
}

TEST(LoopbackTransportTest, UnknownEndpointThrows) {
  LoopbackTransport t;
  EXPECT_THROW(t.send("nowhere", Message{}, Mechanism::kQueryShip),
               std::logic_error);
}

TEST(LoopbackTransportTest, UnregisteredEndpointIsCheckedFailureEvenWhenOthersExist) {
  LoopbackTransport t;
  t.register_endpoint("cache-0", [](const Message&) {});
  EXPECT_THROW(t.send("cache-1", Message{}, Mechanism::kUpdateShip),
               std::logic_error);
  // The failed delivery must not have been accounted anywhere.
  EXPECT_EQ(t.meter().figure_total().count(), 0);
  EXPECT_EQ(t.meter().total(Mechanism::kOverhead).count(), 0);
  EXPECT_EQ(t.delivered_count(), 0);
}

TEST(LoopbackTransportTest, PerEndpointMetersPartitionTheAggregate) {
  LoopbackTransport t;
  for (const char* name : {"server", "cache-0", "cache-1"}) {
    t.register_endpoint(name, [](const Message&) {});
  }
  Message msg;
  msg.kind = MessageKind::kQueryResult;
  msg.payload = Bytes{1000};
  t.send("cache-0", msg, Mechanism::kQueryShip);
  msg.payload = Bytes{250};
  t.send("cache-1", msg, Mechanism::kQueryShip);
  msg.kind = MessageKind::kUpdateShip;
  msg.payload = Bytes{77};
  t.send("cache-1", msg, Mechanism::kUpdateShip);
  msg.kind = MessageKind::kLoadRequest;
  msg.payload = Bytes{};
  t.send("server", msg, Mechanism::kOverhead);

  // Destination-keyed: each endpoint saw exactly its deliveries.
  EXPECT_EQ(t.endpoint_meter("cache-0").total(Mechanism::kQueryShip).count(),
            1000);
  EXPECT_EQ(t.endpoint_meter("cache-1").total(Mechanism::kQueryShip).count(),
            250);
  EXPECT_EQ(t.endpoint_meter("cache-1").total(Mechanism::kUpdateShip).count(),
            77);
  EXPECT_EQ(t.endpoint_meter("server").figure_total().count(), 0);

  // Partition property: per-endpoint totals sum exactly to the aggregate,
  // mechanism by mechanism, bytes and message counts alike.
  ASSERT_EQ(t.endpoint_names().size(), 3u);
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

TEST(LoopbackTransportTest, EndpointMeterUnknownNameThrows) {
  LoopbackTransport t;
  EXPECT_THROW((void)t.endpoint_meter("ghost"), std::logic_error);
  EXPECT_FALSE(t.has_endpoint("ghost"));
}

// The slot-addressed meter accessor (the hot-path variant CacheNode::meter
// uses) aliases the name-addressed meter exactly and validates its slot.
TEST(LoopbackTransportTest, SlotAddressedEndpointMeterAliasesNameLookup) {
  LoopbackTransport t;
  const std::size_t cache = t.register_endpoint("cache", [](const Message&) {});
  const std::size_t other = t.register_endpoint("other", [](const Message&) {});
  Message msg;
  msg.payload = Bytes{500};
  t.send("cache", msg, Mechanism::kObjectLoad);
  EXPECT_EQ(&t.endpoint_meter(cache), &t.endpoint_meter("cache"));
  EXPECT_EQ(&t.endpoint_meter(other), &t.endpoint_meter("other"));
  EXPECT_EQ(t.endpoint_meter(cache).total(Mechanism::kObjectLoad).count(),
            500);
  EXPECT_THROW((void)t.endpoint_meter(std::size_t{99}), std::logic_error);
}

TEST(LoopbackTransportTest, ReRegistrationKeepsEndpointMeter) {
  LoopbackTransport t;
  t.register_endpoint("cache", [](const Message&) {});
  Message msg;
  msg.payload = Bytes{500};
  t.send("cache", msg, Mechanism::kObjectLoad);
  t.register_endpoint("cache", [](const Message&) {});
  EXPECT_EQ(t.endpoint_meter("cache").total(Mechanism::kObjectLoad).count(),
            500);
}

TEST(LoopbackTransportTest, ReRegistrationReplacesHandler) {
  LoopbackTransport t;
  int first = 0;
  int second = 0;
  t.register_endpoint("server", [&](const Message&) { ++first; });
  t.register_endpoint("server", [&](const Message&) { ++second; });
  t.send("server", Message{}, Mechanism::kQueryShip);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
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
