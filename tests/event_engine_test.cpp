// Event-driven engine tests: zero-latency equivalence with the single-cache
// loop on each endpoint's routed sub-trace (a non-golden world), WAN
// yardsticks (simulated response times, per-cache staleness, uplink
// contention) being nonzero, deterministic across repeated runs, and
// divergent across asymmetric links — the scenario axis an instantaneous
// network cannot express.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/yardsticks.h"
#include "meter_invariants.h"
#include "result_identity.h"
#include "sim/event_engine.h"
#include "sim/experiment.h"
#include "trace_builder.h"
#include "workload/trace_split.h"

namespace delta::sim {
namespace {

using World = Setup;  // ::testing::Test::Setup shadows sim::Setup in TESTs

SetupParams small_params(std::uint64_t seed = 11) {
  SetupParams p;
  p.base_level = 4;
  p.total_rows = 4e7;
  p.object_target = 30;
  p.trace_seed = seed;
  p.trace.query_count = 1200;
  p.trace.update_count = 1200;
  p.trace.postwarmup_query_gb = 5.0;
  p.trace.mean_postwarmup_update_mb = 2.0;
  p.trace.hotspot_max_object_gb = 1.0;
  p.benefit_window = 500;
  return p;
}

/// Two caches on asymmetric paths: cache-0 on a LAN, cache-1 across a
/// congested WAN (16 Mbit/s, 80 ms RTT) — the wan_latency_demo topology.
EventEngineOptions wan_options() {
  EventEngineOptions options;
  options.seconds_per_event = 0.002;
  options.default_link = net::LinkModel{125e6, 0.0004};  // 1 Gbit/s LAN
  options.cache_links = {net::LinkModel{125e6, 0.0004},
                         net::LinkModel{2e6, 0.080}};
  return options;
}

void expect_run_results_equal(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.cache_fresh, b.cache_fresh);
  EXPECT_EQ(a.cache_after_updates, b.cache_after_updates);
  EXPECT_EQ(a.shipped, b.shipped);
  EXPECT_EQ(a.objects_loaded, b.objects_loaded);
  EXPECT_EQ(a.total_traffic, b.total_traffic);
  EXPECT_EQ(a.postwarmup_traffic, b.postwarmup_traffic);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(a.postwarmup_by_mechanism[m], b.postwarmup_by_mechanism[m]);
  }
  EXPECT_EQ(a.overhead_traffic, b.overhead_traffic);
}

/// The trace one endpoint of a split sees: every update, plus the queries
/// routed to `endpoint`, renumbered in arrival order.
workload::Trace routed_sub_trace(const workload::Trace& trace,
                                 const std::vector<std::uint32_t>& assignment,
                                 std::uint32_t endpoint) {
  workload::Trace sub;
  sub.info = trace.info;
  sub.updates = trace.updates;
  sub.initial_object_bytes = trace.initial_object_bytes;
  for (const workload::Event& event : trace.order) {
    if (event.kind == workload::Event::Kind::kUpdate) {
      sub.order.push_back(event);
      continue;
    }
    const auto qi = static_cast<std::size_t>(event.index);
    if (assignment[qi] != endpoint) continue;
    workload::Query q = trace.queries[qi];
    q.id = QueryId{static_cast<std::int64_t>(sub.queries.size())};
    sub.order.push_back({workload::Event::Kind::kQuery, q.id.value()});
    sub.queries.push_back(std::move(q));
  }
  return sub;
}

// Beyond the pinned golden world (sim_golden_test), the zero-latency event
// engine must agree with an independent reference on any world — here a
// different seed/size at N=3. Each partition replays every update and
// only its routed queries, so each endpoint must reproduce the
// single-cache loop run on exactly that sub-trace: every row but the
// overhead, which the endpoint view counts without the chatter bound for
// the repository. SOptimal's sharded hindsight is the sub-trace's own.
TEST(EventEngineTest, ZeroLatencyEndpointsMatchSingleCacheRunsOnSubTraces) {
  const World setup{small_params()};
  constexpr std::size_t kEndpoints = 3;
  for (const auto strategy : {workload::SplitStrategy::kRoundRobin,
                              workload::SplitStrategy::kHashByRegion}) {
    const std::vector<std::uint32_t> assignment =
        workload::assign_queries(setup.trace(), kEndpoints, strategy);
    for (const PolicyKind kind :
         {PolicyKind::kNoCache, PolicyKind::kReplica, PolicyKind::kBenefit,
          PolicyKind::kVCover, PolicyKind::kSOptimal}) {
      SCOPED_TRACE(::testing::Message()
                   << to_string(kind) << " " << to_string(strategy));
      const EventRunResult event =
          run_one_event(kind, setup.trace(), setup.cache_capacity(),
                        setup.params(), kEndpoints, strategy);
      ASSERT_EQ(event.replay.per_endpoint.size(), kEndpoints);
      for (std::uint32_t e = 0; e < kEndpoints; ++e) {
        SCOPED_TRACE(::testing::Message() << "endpoint " << e);
        const RunResult& endpoint = event.replay.per_endpoint[e];
        RunResult reference =
            run_one(kind, routed_sub_trace(setup.trace(), assignment, e),
                    setup.cache_capacity(), setup.params());
        reference.overhead_traffic = endpoint.overhead_traffic;
        expect_run_results_equal(endpoint, reference);
      }
      // Instant links: no queueing, no staleness, responses collapse to
      // the execution surcharges.
      EXPECT_EQ(event.staleness_seconds.max(), 0.0);
      EXPECT_EQ(event.dispatch_lag_seconds.max(), 0.0);
      EXPECT_EQ(event.server_uplink.total_queue_wait, 0.0);
    }
  }
}

TEST(EventEngineTest, WanYardsticksAreNonzero) {
  const World setup{small_params()};
  const EventRunResult r = run_one_event(
      PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
      setup.params(), 2, workload::SplitStrategy::kRoundRobin, wan_options());

  // Response times: every post-warm-up query produced a sample, and the
  // tail reflects genuine transfer/queueing time above the exec floor.
  const util::StreamingStats& latency = r.replay.combined.postwarmup_latency;
  EXPECT_GT(latency.count(), 0);
  EXPECT_GT(r.response_p50(), 0.0);
  EXPECT_GE(r.response_p99(), r.response_p50());
  EXPECT_GT(latency.max(), 0.10);  // beyond any pure-exec path

  // Staleness: invalidation notices took measurable time to reach caches.
  EXPECT_GT(r.staleness_seconds.count(), 0);
  EXPECT_GT(r.staleness_seconds.mean(), 0.0);

  // Uplink contention: the repository's egress links were busy and at some
  // point messages queued behind each other.
  EXPECT_GT(r.server_uplink.sends, 0);
  EXPECT_GT(r.server_uplink.busy_seconds, 0.0);

  // The accounting identities survive the asynchronous replay.
  delta::testing::ExpectPerEndpointResultsPartitionCombined(r.replay);
}

// The WAN cache must see strictly worse coherence latency than the LAN
// cache — per-cache divergence no analytic proxy could produce.
TEST(EventEngineTest, AsymmetricLinksDivergePerCacheStaleness) {
  const World setup{small_params()};
  // Replica subscribes every cache to all updates, so both endpoints
  // accumulate dense staleness samples over identical notice streams.
  const EventRunResult r = run_one_event(
      PolicyKind::kReplica, setup.trace(), setup.cache_capacity(),
      setup.params(), 2, workload::SplitStrategy::kRoundRobin, wan_options());
  ASSERT_EQ(r.per_endpoint.size(), 2u);
  const auto& lan = r.per_endpoint[0];
  const auto& wan = r.per_endpoint[1];
  EXPECT_GT(lan.staleness_seconds.count(), 0);
  EXPECT_GT(wan.staleness_seconds.count(), 0);
  EXPECT_GT(wan.staleness_seconds.mean(), 10.0 * lan.staleness_seconds.mean());
}

// Discrete-event determinism: identical runs produce identical yardsticks
// down to the last bit (stable (time, seq) order, no wall-clock leakage).
TEST(EventEngineTest, WanRunIsDeterministicAcrossRepeatedRuns) {
  const World setup{small_params()};
  const auto run = [&] {
    return run_one_event(PolicyKind::kVCover, setup.trace(),
                         setup.cache_capacity(), setup.params(), 2,
                         workload::SplitStrategy::kHashByRegion,
                         wan_options());
  };
  const EventRunResult a = run();
  const EventRunResult b = run();
  expect_run_results_equal(a.replay.combined, b.replay.combined);
  const util::StreamingStats& a_latency = a.replay.combined.postwarmup_latency;
  const util::StreamingStats& b_latency = b.replay.combined.postwarmup_latency;
  EXPECT_EQ(a_latency.count(), b_latency.count());
  EXPECT_EQ(a_latency.mean(), b_latency.mean());
  EXPECT_EQ(a_latency.max(), b_latency.max());
  EXPECT_EQ(a.response_p50(), b.response_p50());
  EXPECT_EQ(a.response_p99(), b.response_p99());
  EXPECT_EQ(a.staleness_seconds.count(), b.staleness_seconds.count());
  EXPECT_EQ(a.staleness_seconds.mean(), b.staleness_seconds.mean());
  EXPECT_EQ(a.server_uplink.sends, b.server_uplink.sends);
  EXPECT_EQ(a.server_uplink.busy_seconds, b.server_uplink.busy_seconds);
  EXPECT_EQ(a.server_uplink.total_queue_wait, b.server_uplink.total_queue_wait);
  EXPECT_EQ(a.sim_duration_seconds, b.sim_duration_seconds);
  EXPECT_EQ(a.delivered_messages, b.delivered_messages);
}

void expect_event_runs_identical(const EventRunResult& a,
                                 const EventRunResult& b) {
  expect_run_results_equal(a.replay.combined, b.replay.combined);
  ASSERT_EQ(a.replay.per_endpoint.size(), b.replay.per_endpoint.size());
  for (std::size_t e = 0; e < a.replay.per_endpoint.size(); ++e) {
    SCOPED_TRACE(::testing::Message() << "endpoint " << e);
    expect_run_results_equal(a.replay.per_endpoint[e],
                             b.replay.per_endpoint[e]);
    EXPECT_EQ(a.replay.per_endpoint[e].postwarmup_latency.count(),
              b.replay.per_endpoint[e].postwarmup_latency.count());
    EXPECT_EQ(a.replay.per_endpoint[e].postwarmup_latency.mean(),
              b.replay.per_endpoint[e].postwarmup_latency.mean());
    EXPECT_EQ(a.per_endpoint[e].staleness_seconds.count(),
              b.per_endpoint[e].staleness_seconds.count());
    EXPECT_EQ(a.per_endpoint[e].staleness_seconds.mean(),
              b.per_endpoint[e].staleness_seconds.mean());
    EXPECT_EQ(a.per_endpoint[e].staleness_seconds.max(),
              b.per_endpoint[e].staleness_seconds.max());
  }
  const util::StreamingStats& a_latency = a.replay.combined.postwarmup_latency;
  const util::StreamingStats& b_latency = b.replay.combined.postwarmup_latency;
  EXPECT_EQ(a_latency.count(), b_latency.count());
  EXPECT_EQ(a_latency.mean(), b_latency.mean());
  EXPECT_EQ(a_latency.variance(), b_latency.variance());
  EXPECT_EQ(a_latency.max(), b_latency.max());
  EXPECT_EQ(a.response_p50(), b.response_p50());
  EXPECT_EQ(a.response_p99(), b.response_p99());
  EXPECT_EQ(a.dispatch_lag_seconds.count(), b.dispatch_lag_seconds.count());
  EXPECT_EQ(a.dispatch_lag_seconds.mean(), b.dispatch_lag_seconds.mean());
  EXPECT_EQ(a.staleness_seconds.count(), b.staleness_seconds.count());
  EXPECT_EQ(a.staleness_seconds.mean(), b.staleness_seconds.mean());
  EXPECT_EQ(a.staleness_seconds.max(), b.staleness_seconds.max());
  EXPECT_EQ(a.server_uplink.sends, b.server_uplink.sends);
  EXPECT_EQ(a.server_uplink.busy_seconds, b.server_uplink.busy_seconds);
  EXPECT_EQ(a.server_uplink.total_queue_wait,
            b.server_uplink.total_queue_wait);
  EXPECT_EQ(a.server_uplink.max_queue_wait, b.server_uplink.max_queue_wait);
  EXPECT_EQ(a.sim_duration_seconds, b.sim_duration_seconds);
  EXPECT_EQ(a.delivered_messages, b.delivered_messages);
}

// The conservative per-partition parallel engine must be byte-identical to
// the sequential (T=1) engine for every thread count, on both the
// zero-latency and the 40 ms WAN configs — every yardstick, every counter,
// every byte. This is the determinism contract of the parallel DES: the
// partitions are replicas whose inbound messages are locally generated, so
// the endpoint-order merge reproduces the T=1 result exactly.
TEST(EventEngineTest, ParallelEngineByteIdenticalToSequentialAcrossThreads) {
  const World setup{small_params()};
  for (const bool wan : {false, true}) {
    EventEngineOptions base = wan ? wan_options() : EventEngineOptions{};
    const auto run = [&](std::size_t threads) {
      EventEngineOptions options = base;
      options.parallel.num_threads = threads;
      return run_one_event(PolicyKind::kVCover, setup.trace(),
                           setup.cache_capacity(), setup.params(), 4,
                           workload::SplitStrategy::kHashByRegion, options);
    };
    const EventRunResult sequential = run(1);
    for (const std::size_t threads : {2u, 4u, 8u}) {
      SCOPED_TRACE(::testing::Message()
                   << (wan ? "wan" : "zero-latency") << " T=" << threads);
      expect_event_runs_identical(run(threads), sequential);
    }
  }
}

// Deliberately skewed routing (~80% of queries on endpoint 0 of 4): the
// LPT packing and work stealing that keep such a straggler from
// serializing the join must not change a single bit of the results — the
// partition stays the atomic determinism unit, stealing only moves which
// thread replays it. Pins the ISSUE 9 scheduling work to the engine's
// byte-identity contract under the exact load shape it exists for.
TEST(EventEngineTest, SkewedRoutingBitIdenticalAcrossThreadsWithStealing) {
  const World setup{small_params()};
  constexpr std::size_t kEndpoints = 4;
  std::vector<std::uint32_t> hot(setup.trace().queries.size(), 0);
  for (std::size_t qi = 0; qi < hot.size(); ++qi) {
    // 8 of 10 queries to endpoint 0, the rest dealt over endpoints 1..3.
    hot[qi] = qi % 10 < 8 ? 0 : 1 + static_cast<std::uint32_t>(qi % 3);
  }
  const auto run = [&](std::size_t threads) {
    EventEngineOptions options = wan_options();
    options.parallel.num_threads = threads;
    return run_policy_event(
        setup.trace(), kEndpoints, workload::SplitStrategy::kRoundRobin,
        [&](core::CacheNode& cache, std::size_t) {
          return make_policy(PolicyKind::kVCover, cache, setup.trace(),
                             setup.cache_capacity(), setup.params());
        },
        options, &hot);
  };
  const EventRunResult sequential = run(1);
  EXPECT_EQ(sequential.steal_count, 0);  // T=1 replays inline, no thieves
  // The measured balance reflects the skew: 80% on one of four endpoints.
  EXPECT_NEAR(sequential.shard_balance, 3.2, 0.05);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "T=" << threads);
    const EventRunResult parallel = run(threads);
    expect_event_runs_identical(parallel, sequential);
    EXPECT_EQ(parallel.shard_balance, sequential.shard_balance);
    EXPECT_EQ(parallel.prefiltered_updates, sequential.prefiltered_updates);
  }
}

SetupParams prefilter_params() {
  // More objects than any one partition's queries can touch, so the filter
  // provably has something to skip for subscription != kAll policies.
  SetupParams params = small_params(17);
  params.object_target = 120;
  return params;
}

// Per-partition update prefiltering must be invisible in every yardstick:
// the updates it skips are exactly those whose ingest the full replay
// would have made an unobservable repository-size bump (object outside the
// partition's touch set — never queried there, never registered, no notice
// fires). Replayed with the filter off vs on, every counter, byte total,
// and latency/staleness sample must match bit-for-bit; only the engine's
// own prefiltered_updates accounting may differ. Both anchor splits,
// N = 65 (more partitions than bits in one 64-bit word), and both drives:
// the open loop's async dispatch branch gates on the routed endpoint too.
TEST(EventEngineTest, PrefilterEquivalentToFullTapeReplay) {
  const World setup{prefilter_params()};
  for (const bool open_loop : {false, true}) {
    for (const workload::SplitStrategy strategy :
         {workload::SplitStrategy::kHashByRegion,
          workload::SplitStrategy::kBalancedByLoad}) {
      for (const std::size_t endpoints : {4u, 65u}) {
        for (const PolicyKind kind :
             {PolicyKind::kVCover, PolicyKind::kSOptimal,
              PolicyKind::kNoCache, PolicyKind::kReplica}) {
          SCOPED_TRACE(::testing::Message()
                       << to_string(kind) << " " << to_string(strategy)
                       << " N=" << endpoints
                       << (open_loop ? " open loop" : " closed loop"));
          const auto run = [&](bool prefilter) {
            EventEngineOptions options = wan_options();
            options.open_loop.enabled = open_loop;
            options.prefilter_updates = prefilter;
            return run_one_event(kind, setup.trace(), setup.cache_capacity(),
                                 setup.params(), endpoints, strategy,
                                 options);
          };
          const EventRunResult full = run(false);
          const EventRunResult filtered = run(true);
          EXPECT_EQ(full.prefiltered_updates, 0);
          if (kind == PolicyKind::kReplica) {
            // kAll subscription: every update is observable, nothing to
            // skip.
            EXPECT_EQ(filtered.prefiltered_updates, 0);
          } else {
            EXPECT_GT(filtered.prefiltered_updates, 0);
          }
          expect_event_runs_identical(filtered, full);
        }
      }
    }
  }
}

// Ships every query, and preloads `preload` at construction, keeping it
// current the way SOptimal keeps its static set: a registration made by
// the factory, which no query routed to the partition needs to name.
class PreloadingPolicy final : public core::CachePolicy {
 public:
  PreloadingPolicy(core::CacheNode* cache, const std::vector<ObjectId>& preload)
      : cache_(cache) {
    cache_->set_subscription(core::MetadataSubscription::kRegisteredOnly);
    cache_->set_invalidation_handler(
        [this](const workload::Update& u) { on_update(u); });
    for (const ObjectId o : preload) cache_->load_object(o);
  }
  void on_update(const workload::Update& u) override { cache_->ship_update(u); }
  core::QueryOutcome on_query(const workload::Query& q) override {
    core::QueryOutcome outcome;
    outcome.result_bytes = cache_->ship_query(q);
    return outcome;
  }
  [[nodiscard]] const char* name() const override { return "Preloading"; }

 private:
  core::CacheNode* cache_;
};

// The touch set's other half: each partition preloads objects its routed
// queries never name, so only the post-factory registration row
// puts them in its touch set. Their updates fire invalidation notices the
// partition must still ingest and ship: filter off vs on must agree on
// every result, notice count and notice ledger.
TEST(EventEngineTest, PrefilterKeepsUpdatesOfPreloadedObjectsNoQueryNames) {
  const World setup{prefilter_params()};
  const workload::Trace& trace = setup.trace();
  const std::size_t object_count = trace.initial_object_bytes.size();
  const workload::SplitStrategy strategy =
      workload::SplitStrategy::kHashByRegion;
  for (const std::size_t endpoints : {4u, 65u}) {
    SCOPED_TRACE(::testing::Message() << "N=" << endpoints);
    const std::vector<std::uint32_t> assignment =
        workload::assign_queries(trace, endpoints, strategy);
    std::vector<std::vector<bool>> named(
        endpoints, std::vector<bool>(object_count, false));
    for (std::size_t i = 0; i < trace.queries.size(); ++i) {
      for (const ObjectId o : trace.queries[i].objects) {
        named[assignment[i]][static_cast<std::size_t>(o.value())] = true;
      }
    }
    // Every other unnamed object: the rest stay outside the touch set, so
    // the filter still has updates to skip.
    std::vector<std::vector<ObjectId>> unnamed(endpoints);
    for (std::size_t e = 0; e < endpoints; ++e) {
      bool take = true;
      for (std::size_t o = 0; o < object_count; ++o) {
        if (named[e][o]) continue;
        if (take) unnamed[e].push_back(ObjectId{static_cast<std::int64_t>(o)});
        take = !take;
      }
    }
    ASSERT_FALSE(unnamed[0].empty());
    const auto run = [&](bool prefilter) {
      EventEngineOptions options = wan_options();
      options.prefilter_updates = prefilter;
      return run_policy_event(
          trace, endpoints, strategy,
          [&](core::CacheNode& cache, std::size_t endpoint) {
            return std::make_unique<PreloadingPolicy>(&cache,
                                                      unnamed[endpoint]);
          },
          options, &assignment);
    };
    const EventRunResult full = run(false);
    const EventRunResult filtered = run(true);
    EXPECT_EQ(full.prefiltered_updates, 0);
    EXPECT_GT(filtered.prefiltered_updates, 0);
    EXPECT_GT(full.notice_messages, 0);
    expect_event_runs_identical(filtered, full);
    EXPECT_EQ(filtered.notice_messages, full.notice_messages);
    EXPECT_EQ(filtered.coalesced_notices, full.coalesced_notices);
    ASSERT_EQ(filtered.per_endpoint.size(), full.per_endpoint.size());
    for (std::size_t e = 0; e < full.per_endpoint.size(); ++e) {
      EXPECT_EQ(filtered.per_endpoint[e].notices_logged,
                full.per_endpoint[e].notices_logged)
          << "endpoint " << e;
    }
  }
}

// The WAN path pinned to recorded figures. Cross-thread-count identity
// cannot see a change that shifts every thread count alike, so two VCover
// WAN runs are held to a replay fingerprint (series and latency moments)
// plus the measured yardsticks, at T = 1 and T = 4.
TEST(EventEngineTest, WanRunsMatchPinnedResults) {
  const World setup{prefilter_params()};
  struct Pinned {
    workload::SplitStrategy strategy;
    std::size_t endpoints;
    std::uint64_t fingerprint;
    double response_p50;
    double response_p99;
    std::int64_t staleness_count;
    double staleness_sum;
    std::int64_t delivered_messages;
    std::int64_t notice_messages;
    std::int64_t prefiltered_updates;
  };
  const Pinned cases[] = {
      {workload::SplitStrategy::kBalancedByLoad, 4, 15988761783817299715ULL,
       15.473615719999872, 837.21693299999708, 28, 0.0058078719998775341,
       2364, 28, 2346},
      {workload::SplitStrategy::kHashByRegion, 65, 3418948851813834216ULL,
       4.2790264240000173, 108.01833400000029, 28, 0.0058078719998775341,
       2308, 28, 74601},
  };
  for (const Pinned& c : cases) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message() << to_string(c.strategy)
                                        << " N=" << c.endpoints
                                        << " T=" << threads);
      EventEngineOptions options = wan_options();
      options.parallel.num_threads = threads;
      const EventRunResult r =
          run_one_event(PolicyKind::kVCover, setup.trace(),
                        setup.cache_capacity(), setup.params(), c.endpoints,
                        c.strategy, options);
      EXPECT_EQ(delta::testing::replay_fingerprint(r.replay), c.fingerprint);
      EXPECT_EQ(r.response_p50(), c.response_p50);
      EXPECT_EQ(r.response_p99(), c.response_p99);
      EXPECT_EQ(r.staleness_seconds.count(), c.staleness_count);
      EXPECT_EQ(r.staleness_seconds.sum(), c.staleness_sum);
      EXPECT_EQ(r.delivered_messages, c.delivered_messages);
      EXPECT_EQ(r.notice_messages, c.notice_messages);
      EXPECT_EQ(r.prefiltered_updates, c.prefiltered_updates);
    }
  }
}

// The number of skipped ingests itself, pinned on one fixed trace at two
// thread counts: a touch set that misses an object a partition never
// observes, or holds one it does not need, leaves every result identical
// but moves these counts.
TEST(EventEngineTest, PrefilteredUpdateCountsArePinned) {
  const World setup{prefilter_params()};
  struct Case {
    workload::SplitStrategy strategy;
    std::size_t endpoints;
    std::int64_t prefiltered;
  };
  const Case cases[] = {
      {workload::SplitStrategy::kHashByRegion, 4, 2466},
      {workload::SplitStrategy::kHashByRegion, 65, 74601},
      {workload::SplitStrategy::kBalancedByLoad, 4, 2346},
      {workload::SplitStrategy::kBalancedByLoad, 65, 74527},
  };
  for (const Case& c : cases) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message() << to_string(c.strategy)
                                        << " N=" << c.endpoints
                                        << " T=" << threads);
      EventEngineOptions options = wan_options();
      options.parallel.num_threads = threads;
      const EventRunResult r =
          run_one_event(PolicyKind::kVCover, setup.trace(),
                        setup.cache_capacity(), setup.params(), c.endpoints,
                        c.strategy, options);
      EXPECT_EQ(r.prefiltered_updates, c.prefiltered);
    }
  }
}

// run_policy_event accepts traces that never passed Trace::validate(). An
// object id past the object table must be rejected before it indexes the
// per-object counts, a touch row or a prefilter gate — not written or read
// out of bounds. NoCache prefilters, so both partitions build touch rows.
TEST(EventEngineTest, OutOfRangeObjectIdsAreRejected) {
  const auto run = [](const workload::Trace& trace) {
    return run_policy_event(trace, 2, workload::SplitStrategy::kRoundRobin,
                            [](core::CacheNode& cache, std::size_t) {
                              return std::make_unique<core::NoCachePolicy>(
                                  &cache);
                            });
  };
  using delta::testing::TraceBuilder;
  const auto trace = [](std::int64_t query_object,
                        std::int64_t update_object) {
    return TraceBuilder({4096, 4096})
        .query({0}, 100)
        .query({0, query_object}, 100)
        .update(update_object, 100)
        .build();
  };
  EXPECT_NO_THROW(run(trace(1, 1)));
  EXPECT_THROW(run(trace(1, 2)), std::logic_error);
  EXPECT_THROW(run(trace(5, 1)), std::logic_error);
  // The decode pass rejects them, before any replica could misuse the id.
  const auto rejection = [&](const workload::Trace& bad) {
    try {
      run(bad);
    } catch (const std::logic_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(rejection(trace(1, 2)).find("update 0 names object 2 of 2"),
            std::string::npos);
  EXPECT_NE(rejection(trace(5, 1)).find("query 1 names object 5 of 2"),
            std::string::npos);
  // Likewise a merged-order entry past the query table.
  workload::Trace bad_order = trace(1, 1);
  bad_order.order.front().index = 7;
  EXPECT_THROW(run(bad_order), std::logic_error);
}

// The calling thread's work before the replay, the partition replays and
// the merge are disjoint intervals of the run's wall: at T = 1 the
// partitions replay one after another, so the parts can never add up to
// more than the whole.
TEST(EventEngineTest, PhaseTimesFitInsideTheWall) {
  const World setup{small_params()};
  EventEngineOptions options = wan_options();
  options.parallel.num_threads = 1;
  const EventRunResult r = run_one_event(
      PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
      setup.params(), 4, workload::SplitStrategy::kBalancedByLoad, options);
  EXPECT_GT(r.prepare_seconds, 0.0);
  EXPECT_GT(r.merge_seconds, 0.0);
  double parts = r.prepare_seconds + r.merge_seconds;
  for (const RunResult& e : r.replay.per_endpoint) {
    EXPECT_GT(e.wall_seconds, 0.0);
    parts += e.wall_seconds;
  }
  EXPECT_LE(parts, r.replay.combined.wall_seconds);
}

// Partition invariants of the parallel engine: the combined yardstick
// statistics are the endpoint-order fold of the per-cache ones (every
// sample belongs to exactly one partition), and the per-endpoint replay
// results partition the combined accounting exactly.
TEST(EventEngineTest, ParallelPartitionsPartitionCombinedYardsticks) {
  const World setup{small_params()};
  EventEngineOptions options = wan_options();
  options.parallel.num_threads = 4;
  const EventRunResult r = run_one_event(
      PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
      setup.params(), 2, workload::SplitStrategy::kRoundRobin, options);
  delta::testing::ExpectEndpointOrderFold(r);
  delta::testing::ExpectPerEndpointResultsPartitionCombined(r.replay);
}

// Slower links can only push simulated completion later, never earlier.
TEST(EventEngineTest, WanResponseTimesDominateZeroLatencyResponses) {
  const World setup{small_params()};
  const EventRunResult zero = run_one_event(
      PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
      setup.params(), 2, workload::SplitStrategy::kRoundRobin);
  const EventRunResult wan = run_one_event(
      PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
      setup.params(), 2, workload::SplitStrategy::kRoundRobin, wan_options());
  EXPECT_GT(wan.replay.combined.postwarmup_latency.mean(),
            zero.replay.combined.postwarmup_latency.mean());
  EXPECT_GE(wan.response_p99(), zero.response_p99());
  EXPECT_GT(wan.sim_duration_seconds, 0.0);
}

}  // namespace
}  // namespace delta::sim
