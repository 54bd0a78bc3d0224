#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

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

/// Binds `end` to a handler that ignores its deliveries.
void bind_sink(Transport& t, End end, const char* name) {
  t.bind(end, name, [](const Message&) {});
}

Message message_with(Bytes payload) {
  Message m;
  m.payload = payload;
  return m;
}

TEST(LoopbackTransportTest, DeliversToTheAddressedEnd) {
  LoopbackTransport t;
  std::vector<Message> received;
  bind_sink(t, End::kServer, "server");
  t.bind(End::kCache, "cache",
         [&](const Message& m) { received.push_back(m); });
  Message msg = message_with(Bytes{12345});
  msg.kind = MessageKind::kUpdateShip;
  msg.subject_id = 9;
  t.send(End::kCache, msg, Mechanism::kUpdateShip);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].subject_id, 9);
  const TrafficMeter& cache = t.endpoint_meter(End::kCache);
  EXPECT_EQ(cache.total(Mechanism::kUpdateShip).count(), 12345);
  EXPECT_EQ(cache.total(Mechanism::kOverhead), kMessageHeaderBytes);
  EXPECT_EQ(cache.message_count(Mechanism::kUpdateShip), 1);
  EXPECT_EQ(t.endpoint_meter(End::kServer).message_count(Mechanism::kOverhead),
            0);
}

// A wire carries messages only once both ends are bound: a send to an
// unbound end, or from one, is a checked failure that accounts nothing.
TEST(LoopbackTransportTest, SendOnUnboundWireIsCheckedFailure) {
  LoopbackTransport t;
  Message msg = message_with(Bytes{10});
  EXPECT_THROW(t.send(End::kServer, msg, Mechanism::kQueryShip),
               std::logic_error);
  int delivered = 0;
  t.bind(End::kServer, "server", [&](const Message&) { ++delivered; });
  EXPECT_THROW(t.send(End::kCache, msg, Mechanism::kQueryShip),
               std::logic_error);
  EXPECT_THROW(t.send(End::kServer, msg, Mechanism::kQueryShip),
               std::logic_error);
  EXPECT_EQ(delivered, 0);
  for (const End end : {End::kServer, End::kCache}) {
    EXPECT_EQ(t.endpoint_meter(end).figure_total().count(), 0);
    EXPECT_EQ(t.endpoint_meter(end).total(Mechanism::kOverhead).count(), 0);
  }
  bind_sink(t, End::kCache, "cache");
  t.send(End::kServer, msg, Mechanism::kQueryShip);
  EXPECT_EQ(delivered, 1);
}

// The two end meters partition the wire's traffic: each holds exactly the
// messages delivered to its end, so together they account every send once,
// mechanism by mechanism, bytes and message counts alike.
TEST(LoopbackTransportTest, EndMetersPartitionTheTraffic) {
  LoopbackTransport t;
  bind_sink(t, End::kServer, "server");
  bind_sink(t, End::kCache, "cache");
  std::array<Bytes, kMechanismCount> sent_bytes{};
  std::array<std::int64_t, kMechanismCount> sent_count{};
  const auto send = [&](End to, Mechanism mech, Bytes payload) {
    Message msg = message_with(payload);
    t.send(to, msg, mech);
    sent_bytes[static_cast<std::size_t>(mech)] += payload;
    ++sent_count[static_cast<std::size_t>(mech)];
    sent_bytes[static_cast<std::size_t>(Mechanism::kOverhead)] +=
        kMessageHeaderBytes;
    ++sent_count[static_cast<std::size_t>(Mechanism::kOverhead)];
  };
  send(End::kCache, Mechanism::kQueryShip, Bytes{1000});
  send(End::kCache, Mechanism::kQueryShip, Bytes{250});
  send(End::kCache, Mechanism::kUpdateShip, Bytes{77});
  send(End::kServer, Mechanism::kOverhead, Bytes{});

  const TrafficMeter& cache = t.endpoint_meter(End::kCache);
  const TrafficMeter& server = t.endpoint_meter(End::kServer);
  EXPECT_EQ(cache.total(Mechanism::kQueryShip).count(), 1250);
  EXPECT_EQ(cache.total(Mechanism::kUpdateShip).count(), 77);
  EXPECT_EQ(server.figure_total().count(), 0);
  EXPECT_EQ(server.total(Mechanism::kOverhead), kMessageHeaderBytes);
  for (std::size_t i = 0; i < kMechanismCount; ++i) {
    const auto mech = static_cast<Mechanism>(i);
    EXPECT_EQ(cache.total(mech) + server.total(mech), sent_bytes[i])
        << to_string(mech);
    EXPECT_EQ(cache.message_count(mech) + server.message_count(mech),
              sent_count[i])
        << to_string(mech);
  }
}

// Folding one meter into another adds bytes and message counts.
TEST(TrafficMeterTest, MergeAddsBytesAndCounts) {
  TrafficMeter a;
  a.record(Mechanism::kQueryShip, Bytes{100});
  a.record(Mechanism::kOverhead, Bytes{64});
  TrafficMeter b;
  b.record(Mechanism::kQueryShip, Bytes{5});
  b.record(Mechanism::kObjectLoad, Bytes{7});
  a.merge(b);
  EXPECT_EQ(a.total(Mechanism::kQueryShip).count(), 105);
  EXPECT_EQ(a.message_count(Mechanism::kQueryShip), 2);
  EXPECT_EQ(a.total(Mechanism::kObjectLoad).count(), 7);
  EXPECT_EQ(a.message_count(Mechanism::kObjectLoad), 1);
  EXPECT_EQ(a.message_count(Mechanism::kOverhead), 1);
  EXPECT_EQ(b.total(Mechanism::kQueryShip).count(), 5);  // source untouched
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

// Each end is bound once, and never under the other end's name: a
// rejected bind neither replaces the bound handler nor binds the end.
TEST(LoopbackTransportTest, SecondBindIsCheckedFailure) {
  LoopbackTransport t;
  int first = 0;
  int second = 0;
  t.bind(End::kServer, "server", [&](const Message&) { ++first; });
  EXPECT_THROW(t.bind(End::kServer, "other", [&](const Message&) { ++second; }),
               std::logic_error);
  EXPECT_THROW(t.bind(End::kCache, "server", [&](const Message&) { ++second; }),
               std::logic_error);
  EXPECT_THROW(t.bind(End::kCache, "cache", nullptr), std::logic_error);
  Message msg;
  EXPECT_THROW(t.send(End::kServer, msg, Mechanism::kQueryShip),
               std::logic_error);  // the cache end is still unbound
  t.bind(End::kCache, "cache", [&](const Message&) { ++second; });
  EXPECT_THROW(t.bind(End::kCache, "cache-2", [](const Message&) {}),
               std::logic_error);
  t.send(End::kServer, msg, Mechanism::kQueryShip);
  t.send(End::kCache, msg, Mechanism::kQueryShip);
  EXPECT_EQ(first, 1);
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
