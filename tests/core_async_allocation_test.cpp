// Allocation regression for the async request path. This binary replaces
// the global operator new/delete (allocation_counter.h) and checks that,
// once a ServerNode/CacheNode pair over a DelayedTransport with the
// protocol armed has warmed up, CacheNode's three *_async calls and the
// on_query_async of VCover, Benefit, NoCache and SOptimal make no
// allocation per query: completions are typed {fn, ctx, tag} records,
// query contexts come from the policy's slab, and every table on the way
// (pending requests, in-flight messages, the event heap) has reached its
// working size. The count is checked at 1k and at 10k queries; with any
// per-query allocation left the two would differ.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "allocation_counter.h"
#include "core/benefit_policy.h"
#include "core/cache_node.h"
#include "core/server_node.h"
#include "core/vcover_policy.h"
#include "core/yardsticks.h"
#include "net/delayed_transport.h"
#include "trace_builder.h"
#include "util/event_queue.h"

namespace delta::core {
namespace {

constexpr std::size_t kWarmupQueries = 5'000;
constexpr std::size_t kSmall = 1'000;
constexpr std::size_t kLarge = 10'000;
/// Queries dispatched before the event queue is pumped: the overlap an
/// open-loop window gives, so the pools grow past one entry.
constexpr std::size_t kWave = 8;

/// Sixteen 1 MB objects, queries over one to three of them, and updates
/// on half of the objects: with a cache of a few MB, VCover and Benefit
/// keep loading and evicting, so every request kind stays on the measured
/// path.
workload::Trace make_trace() {
  testing::TraceBuilder b{std::vector<std::int64_t>(16, 1'000'000)};
  for (std::int64_t i = 0; i < 64; ++i) {
    const std::int64_t o = (i * 7) % 16;
    if (i % 3 == 0) {
      b.query({o}, 900'000);
    } else if (i % 3 == 1) {
      b.query({o, (o + 1) % 16}, 1'500'000);
    } else {
      b.query({o, (o + 5) % 16, (o + 9) % 16}, 400'000);
    }
    if (i % 2 == 0) b.update((i * 3) % 16, 20'000);
  }
  return b.build();
}

/// One replica on a 100 Mbit/s, 40 ms wire with the protocol armed.
struct Replica {
  workload::Trace trace = make_trace();
  util::EventQueue events;
  net::DelayedTransport transport{&events, net::LinkModel{12.5e6, 0.040}};
  ServerNode server{&trace, &transport};
  CacheNode cache{&trace, &server};

  Replica() {
    ProtocolOptions protocol;
    protocol.enabled = true;
    server.set_protocol(protocol);
    cache.set_protocol(protocol, /*probe_on_suspect=*/false);
  }
};

void count_query(void* completed, std::uint64_t, const QueryOutcome&) {
  ++*static_cast<std::size_t*>(completed);
}

void count_reply(void* completed, std::uint64_t, Bytes) {
  ++*static_cast<std::size_t*>(completed);
}

/// Dispatches `count` queries through `policy.on_query_async`, cycling
/// through the trace, in waves of kWave pumped to completion.
void run_queries(Replica& node, CachePolicy& policy, std::size_t count) {
  std::size_t completed = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const workload::Query& q =
        node.trace.queries[i % node.trace.queries.size()];
    policy.on_query_async(q, {&count_query, &completed, i});
    if ((i + 1) % kWave == 0) node.events.run_until_idle();
  }
  node.events.run_until_idle();
  ASSERT_EQ(completed, count);
}

/// Allocations made by `run(n)` for n = kSmall and n = kLarge, after a
/// warm-up of kWarmupQueries.
template <typename Run>
std::pair<std::int64_t, std::int64_t> count_after_warmup(Run&& run) {
  run(kWarmupQueries);
  testing::start_counting_allocations();
  run(kSmall);
  const std::int64_t small = testing::stop_counting_allocations();
  testing::start_counting_allocations();
  run(kLarge);
  const std::int64_t large = testing::stop_counting_allocations();
  return {small, large};
}

template <typename Policy>
void expect_policy_allocation_free(Replica& node, Policy& policy) {
  const auto [small, large] = count_after_warmup(
      [&](std::size_t n) { run_queries(node, policy, n); });
  EXPECT_EQ(small, large) << kSmall << " vs " << kLarge << " queries";
  EXPECT_EQ(large, 0) << "allocations over " << kLarge << " queries";
  EXPECT_EQ(policy.async_queries().in_flight(), 0u);
  EXPECT_LE(policy.async_queries().capacity(), kWave);
  EXPECT_EQ(node.cache.pending_requests(), 0u);
}

TEST(AsyncAllocationTest, CacheNodeAsyncCallsAllocateNothing) {
  Replica node;
  std::size_t completed = 0;
  const auto run = [&](std::size_t n) {
    completed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const workload::Query& q =
          node.trace.queries[i % node.trace.queries.size()];
      const workload::Update& u =
          node.trace.updates[i % node.trace.updates.size()];
      node.cache.ship_query_async(q, {&count_reply, &completed, i});
      node.cache.ship_update_async(u, {&count_reply, &completed, i});
      node.cache.load_object_async(u.object, {&count_reply, &completed, i});
      if ((i + 1) % kWave == 0) node.events.run_until_idle();
    }
    node.events.run_until_idle();
    ASSERT_EQ(completed, 3 * n);
  };
  const auto [small, large] = count_after_warmup(run);
  EXPECT_EQ(small, large) << kSmall << " vs " << kLarge << " requests";
  EXPECT_EQ(large, 0) << "allocations over " << 3 * kLarge << " requests";
  EXPECT_EQ(node.cache.counters().failed_requests, 0);
}

TEST(AsyncAllocationTest, VCoverOnQueryAsyncAllocatesNothing) {
  Replica node;
  VCoverOptions options;
  // Ten of the sixteen objects: enough churn to load and evict, enough
  // residency for the outstanding updates to be shipped, not evicted.
  options.cache_capacity = Bytes{10'000'000};
  VCoverPolicy policy{&node.cache, options};
  // Updates on the objects the first queries cached: their notices leave
  // outstanding updates for the warm-up to ship. (An ingest inside the
  // measured window would grow the server's notice ledger.)
  run_queries(node, policy, 500);
  for (const workload::Update& u : node.trace.updates) {
    node.server.ingest_update(u);
  }
  expect_policy_allocation_free(node, policy);
  EXPECT_GT(policy.loads(), 0);
  EXPECT_GT(policy.evictions(), 0);
  EXPECT_GT(node.cache.meter().total(net::Mechanism::kUpdateShip).count(), 0);
}

TEST(AsyncAllocationTest, BenefitOnQueryAsyncAllocatesNothing) {
  Replica node;
  BenefitPolicy policy{&node.cache, BenefitOptions{Bytes{4'000'000}, 200}};
  expect_policy_allocation_free(node, policy);
  EXPECT_GT(policy.loads(), 0);
  EXPECT_GT(policy.windows_closed(), 0);
}

TEST(AsyncAllocationTest, NoCacheOnQueryAsyncAllocatesNothing) {
  Replica node;
  NoCachePolicy policy{&node.cache};
  expect_policy_allocation_free(node, policy);
}

TEST(AsyncAllocationTest, SOptimalOnQueryAsyncAllocatesNothing) {
  Replica node;
  SOptimalOptions options;
  options.cache_capacity = Bytes{4'000'000};
  SOptimalPolicy policy{&node.cache, &node.trace, options};
  ASSERT_FALSE(policy.chosen().empty());
  expect_policy_allocation_free(node, policy);
}

}  // namespace
}  // namespace delta::core
