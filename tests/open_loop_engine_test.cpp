// Open-loop drive and congestion batching (ISSUE 7): arrival-process
// pacing through the async policy API — rate pressure shows up in the
// yardsticks, the in-flight window throttles dispatch, results stay
// bit-identical across thread counts — and the server's notice batching
// conserves the invalidation fan-out while coalescing messages under
// backlog (and degenerates to the unbatched byte stream when the uplink
// never congests).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "result_identity.h"
#include "sim/event_engine.h"
#include "sim/experiment.h"
#include "workload/arrival_process.h"
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

/// The 40 ms WAN duplex path on every cache (the ISSUE 7 bench config).
EventEngineOptions wan_open_loop(double rate,
                                 workload::ArrivalProcess::Kind kind =
                                     workload::ArrivalProcess::Kind::kPoisson) {
  EventEngineOptions options;
  options.default_link = net::LinkModel{12.5e6, 0.040};  // 100 Mbit/s, 40 ms
  options.open_loop.enabled = true;
  options.open_loop.arrival = kind;
  options.open_loop.rate_per_sec = rate;
  return options;
}

void expect_combined_equal(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.cache_fresh, b.cache_fresh);
  EXPECT_EQ(a.cache_after_updates, b.cache_after_updates);
  EXPECT_EQ(a.shipped, b.shipped);
  EXPECT_EQ(a.objects_loaded, b.objects_loaded);
  EXPECT_EQ(a.total_traffic, b.total_traffic);
  EXPECT_EQ(a.postwarmup_traffic, b.postwarmup_traffic);
  EXPECT_EQ(a.overhead_traffic, b.overhead_traffic);
}

void expect_yardsticks_identical(const EventRunResult& a,
                                 const EventRunResult& b) {
  expect_combined_equal(a.replay.combined, b.replay.combined);
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
  EXPECT_EQ(a.sim_duration_seconds, b.sim_duration_seconds);
  EXPECT_EQ(a.delivered_messages, b.delivered_messages);
  EXPECT_EQ(a.coalesced_notices, b.coalesced_notices);
  EXPECT_EQ(a.notice_messages, b.notice_messages);
}

// Every routed query completes and lands exactly one response sample; the
// combined statistics are the endpoint-order fold of the per-endpoint ones,
// as in closed loop.
TEST(OpenLoopEngineTest, EveryQueryCompletesWithOneSample) {
  const World setup{small_params()};
  const EventRunResult r = run_one_event(
      PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
      setup.params(), 2, workload::SplitStrategy::kRoundRobin,
      wan_open_loop(2000.0));
  EXPECT_EQ(r.replay.combined.queries,
            static_cast<std::int64_t>(setup.trace().queries.size()));
  delta::testing::ExpectEndpointOrderFold(r);
  EXPECT_GT(r.response_p99(), 0.0);
}

// Driving the same workload faster can only add pressure: simulated span
// shrinks toward the arrival horizon while responses grow with queueing.
TEST(OpenLoopEngineTest, RateSweepAddsQueueingPressure) {
  const World setup{small_params()};
  const auto run = [&](double rate) {
    return run_one_event(PolicyKind::kVCover, setup.trace(),
                         setup.cache_capacity(), setup.params(), 2,
                         workload::SplitStrategy::kRoundRobin,
                         wan_open_loop(rate));
  };
  const EventRunResult slow = run(20.0);
  const EventRunResult fast = run(5000.0);
  EXPECT_GT(slow.sim_duration_seconds, fast.sim_duration_seconds);
  EXPECT_GT(fast.replay.combined.postwarmup_latency.mean(),
            slow.replay.combined.postwarmup_latency.mean());
  EXPECT_GE(fast.response_p99(), slow.response_p99());
}

// The in-flight window throttles dispatch: a window of 1 serializes the
// cache's queries (closed-loop-like lag), a wide window overlaps them.
TEST(OpenLoopEngineTest, InFlightWindowThrottlesDispatch) {
  const World setup{small_params()};
  const auto run = [&](std::size_t window) {
    EventEngineOptions options = wan_open_loop(5000.0);
    options.open_loop.max_in_flight = window;
    return run_one_event(PolicyKind::kVCover, setup.trace(),
                         setup.cache_capacity(), setup.params(), 2,
                         workload::SplitStrategy::kRoundRobin, options);
  };
  const EventRunResult narrow = run(1);
  const EventRunResult wide = run(64);
  EXPECT_EQ(narrow.replay.combined.postwarmup_latency.count(),
            wide.replay.combined.postwarmup_latency.count());
  // Window waits are dispatch lag; overlapping dispatch removes most of it.
  EXPECT_GT(narrow.dispatch_lag_seconds.mean(),
            wide.dispatch_lag_seconds.mean());
}

// The deterministic-merge contract extends to the open loop: any thread
// count reproduces the sequential run bit-for-bit, for each arrival kind.
TEST(OpenLoopEngineTest, BitIdenticalAcrossThreadCounts) {
  const World setup{small_params()};
  for (const auto kind : {workload::ArrivalProcess::Kind::kPoisson,
                          workload::ArrivalProcess::Kind::kBursty,
                          workload::ArrivalProcess::Kind::kDiurnal}) {
    const auto run = [&](std::size_t threads) {
      EventEngineOptions options = wan_open_loop(2000.0, kind);
      options.parallel.num_threads = threads;
      return run_one_event(PolicyKind::kVCover, setup.trace(),
                           setup.cache_capacity(), setup.params(), 4,
                           workload::SplitStrategy::kHashByRegion, options);
    };
    SCOPED_TRACE(workload::ArrivalProcess::kind_name(kind));
    const EventRunResult sequential = run(1);
    for (const std::size_t threads : {2u, 4u, 8u}) {
      SCOPED_TRACE(::testing::Message() << "T=" << threads);
      expect_yardsticks_identical(run(threads), sequential);
    }
  }
}

// Congestion batching conserves the invalidation fan-out exactly: every
// notice the unbatched run sends is either a standalone message or rides
// coalesced behind another one — and under a bursty saturating drive some
// really do coalesce.
TEST(OpenLoopEngineTest, BatchingConservesAndCoalescesNotices) {
  const World setup{small_params()};
  const auto run = [&](bool batching) {
    EventEngineOptions options =
        wan_open_loop(5000.0, workload::ArrivalProcess::Kind::kBursty);
    options.notice_batching.enabled = batching;
    options.notice_batching.backlog_threshold_seconds = 0.0;
    return run_one_event(PolicyKind::kReplica, setup.trace(),
                         setup.cache_capacity(), setup.params(), 2,
                         workload::SplitStrategy::kRoundRobin, options);
  };
  const EventRunResult off = run(false);
  const EventRunResult on = run(true);
  EXPECT_EQ(off.coalesced_notices, 0);
  EXPECT_GT(on.coalesced_notices, 0);
  EXPECT_LT(on.notice_messages, off.notice_messages);
  EXPECT_EQ(on.notice_messages + on.coalesced_notices, off.notice_messages);
}

// A saturating drive parks thousands of invalidation notices back-to-back
// on the WAN link; Replica's handler does a blocking refresh per notice,
// and each blocking wait pumps the queue — which delivers the next notice.
// CacheNode flattens that re-entrancy (nested notices queue and drain
// iteratively), so a bench-scale backlog must complete instead of
// overflowing the stack with one handler frame per queued notice (the
// crash this pins ate ~40k frames).
TEST(OpenLoopEngineTest, DeepNoticeBacklogDoesNotRecurseHandlers) {
  SetupParams params = small_params();
  params.trace.query_count = 12'000;
  params.trace.update_count = 12'000;
  params.trace.postwarmup_query_gb = 300.0 * 12'000 / 250'000.0;
  const World setup{params};
  EventEngineOptions options = wan_open_loop(500.0);
  options.open_loop.response_sample_cap = 4'000;
  const EventRunResult r = run_one_event(
      PolicyKind::kReplica, setup.trace(), setup.cache_capacity(),
      setup.params(), 2, workload::SplitStrategy::kRoundRobin, options);
  EXPECT_EQ(r.replay.combined.queries,
            static_cast<std::int64_t>(setup.trace().queries.size()));
}

// Over links that never congest the backlog gate never holds a notice, so
// batching-on must reproduce the batching-off run byte-for-byte — the
// guarantee that keeps the golden (closed-loop, zero-latency) tables safe
// even with the feature compiled in everywhere.
TEST(OpenLoopEngineTest, BatchingIsByteIdenticalWhenUplinkNeverCongests) {
  const World setup{small_params()};
  const auto run = [&](bool batching) {
    EventEngineOptions options;  // zero-latency closed loop
    options.notice_batching.enabled = batching;
    return run_one_event(PolicyKind::kVCover, setup.trace(),
                         setup.cache_capacity(), setup.params(), 2,
                         workload::SplitStrategy::kRoundRobin, options);
  };
  const EventRunResult off = run(false);
  const EventRunResult on = run(true);
  EXPECT_EQ(on.coalesced_notices, 0);
  expect_combined_equal(on.replay.combined, off.replay.combined);
  EXPECT_EQ(on.delivered_messages, off.delivered_messages);
  EXPECT_EQ(on.replay.combined.postwarmup_latency.mean(),
            off.replay.combined.postwarmup_latency.mean());
  EXPECT_EQ(on.notice_messages, off.notice_messages);
}

}  // namespace
}  // namespace delta::sim
