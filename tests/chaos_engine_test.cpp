// Chaos suite (ISSUE 8): partition-then-heal convergence, overload
// admission, lossy-link retry/dedup accounting — and the two contracts
// that make the fault layer safe to ship: bit-identical results at any
// thread count with faults ON, and byte-identical goldens with the layer
// compiled in but disabled.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/fault_plan.h"
#include "result_identity.h"
#include "sim/event_engine.h"
#include "sim/experiment.h"
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

/// A workload the 100 Mbit link can actually carry: kilobyte-scale
/// transfers, so the clean network runs far below the protocol timeout and
/// the failure counters measure *faults*, not permanent overload. (The
/// saturated small_params regime is exercised by open_loop_engine_test;
/// with a timeout protocol armed it degenerates to a retransmit storm,
/// which is the admission test's job, not the partition test's.)
SetupParams chaos_params(std::uint64_t seed = 11) {
  SetupParams p = small_params(seed);
  // A repository the 100 Mbit link can actually carry: megabyte-scale
  // objects that are cheap against their query volume, so VCover registers
  // the hot set (invalidation traffic exists to disrupt) and the clean
  // network runs far below the protocol timeout. The saturated
  // small_params regime stays covered by open_loop_engine_test; with a
  // timeout protocol armed it degenerates to a retransmit storm, which is
  // the flash-crowd test's job, not the partition test's.
  p.total_rows = 4e4;
  p.trace.postwarmup_query_gb = 0.05;
  p.trace.mean_postwarmup_update_mb = 0.02;
  p.trace.hotspot_max_object_gb = 0.01;
  return p;
}

/// The hardened open-loop WAN config every chaos scenario builds on.
EventEngineOptions chaos_base(double rate) {
  EventEngineOptions options;
  options.default_link = net::LinkModel{12.5e6, 0.040};  // 100 Mbit/s, 40 ms
  options.open_loop.enabled = true;
  options.open_loop.rate_per_sec = rate;
  options.open_loop.max_in_flight = 64;
  options.protocol.enabled = true;
  options.admission.enabled = true;
  return options;
}

void add_partition(EventEngineOptions& options, std::size_t endpoints,
                   double down, double heal) {
  options.fault_plan.enabled = true;
  for (std::size_t i = 0; i < endpoints; ++i) {
    options.fault_plan.partitions.push_back(net::LinkPartition{
        "server", "cache-" + std::to_string(i), /*duplex=*/true,
        {net::FaultWindow{down, heal}}});
  }
}

void expect_runs_identical(const EventRunResult& a, const EventRunResult& b) {
  EXPECT_EQ(a.replay.combined.queries, b.replay.combined.queries);
  EXPECT_EQ(a.replay.combined.total_traffic, b.replay.combined.total_traffic);
  EXPECT_EQ(a.replay.combined.overhead_traffic,
            b.replay.combined.overhead_traffic);
  const util::StreamingStats& a_latency = a.replay.combined.postwarmup_latency;
  const util::StreamingStats& b_latency = b.replay.combined.postwarmup_latency;
  EXPECT_EQ(a_latency.count(), b_latency.count());
  EXPECT_EQ(a_latency.mean(), b_latency.mean());
  EXPECT_EQ(a_latency.max(), b_latency.max());
  EXPECT_EQ(a.response_p99(), b.response_p99());
  EXPECT_EQ(a.staleness_seconds.count(), b.staleness_seconds.count());
  EXPECT_EQ(a.staleness_seconds.mean(), b.staleness_seconds.mean());
  EXPECT_EQ(a.sim_duration_seconds, b.sim_duration_seconds);
  EXPECT_EQ(a.delivered_messages, b.delivered_messages);
  EXPECT_EQ(a.notice_messages, b.notice_messages);
  EXPECT_EQ(a.chaos, b.chaos);
}

// The tentpole acceptance: both server<->cache paths go dark for 20% of
// the run, then heal. Caches suspect the partition (timeouts, retries,
// an unavailability window), and on heal the epoch resync replays every
// missed invalidation: each cache's notice ledger balances exactly, and
// no query leaks — every one is completed, retried to completion, or
// accounted as shed/failed, so the combined count still equals the trace.
TEST(ChaosEngineTest, PartitionThenHealConvergesAndConservesQueries) {
  const World setup{chaos_params()};
  const double rate = 200.0;  // 2400 events -> ~12 s span, ~2.4 s dark
  const double duration =
      static_cast<double>(setup.trace().order.size()) / rate;
  EventEngineOptions options = chaos_base(rate);
  // A tight in-flight window would stall the arrival tape once the dark
  // window fills it with timing-out queries — the clock then leaps over
  // the partition and the updates it should have swallowed get ingested
  // after heal. Unbound the window so arrivals stay on schedule and the
  // partition genuinely eats in-window invalidation notices.
  options.open_loop.max_in_flight = 4096;
  add_partition(options, 2, 0.40 * duration, 0.60 * duration);
  // Replica subscribes to every update (kAll), so the dark window is
  // guaranteed to swallow invalidation notices — the traffic the resync
  // has to repair.
  const EventRunResult r = run_one_event(
      PolicyKind::kReplica, setup.trace(), setup.cache_capacity(),
      setup.params(), 2, workload::SplitStrategy::kRoundRobin, options);

  // Conservation: the partition ate messages, not queries.
  EXPECT_EQ(r.replay.combined.queries,
            static_cast<std::int64_t>(setup.trace().queries.size()));
  EXPECT_GT(r.chaos.partition_dropped, 0);
  EXPECT_GT(r.chaos.timeouts, 0);
  EXPECT_GT(r.chaos.retries, 0);
  EXPECT_GT(r.chaos.unavailable_seconds, 0.0);

  // Recovery: the heal triggered at least one resync, and the replay
  // closed the staleness hole the dark window opened. (Served >= client
  // resyncs: a slow resync reply can provoke retransmits, each served
  // idempotently.)
  EXPECT_GE(r.chaos.resyncs, 1);
  EXPECT_GE(r.chaos.resyncs_served, r.chaos.resyncs);
  EXPECT_GT(r.chaos.replayed_notices, 0);
  EXPECT_GT(r.chaos.max_recovery_staleness_seconds, 0.0);

  // Convergence, per cache: the server's notice ledger for this cache is
  // exactly the set of notices the cache ended up applying.
  for (const auto& e : r.per_endpoint) {
    EXPECT_GT(e.notices_logged, 0);
    EXPECT_EQ(e.protocol.notices_applied, e.notices_logged);
  }
  EXPECT_EQ(r.chaos.notices_applied, r.chaos.notices_logged);
}

// Flash crowd: 10x the provisioned arrival rate, clean network. The
// admission controller sheds at the server instead of letting the backlog
// grow without bound — and shed queries still count.
TEST(ChaosEngineTest, FlashCrowdShedsButConservesQueries) {
  const World setup{chaos_params()};
  EventEngineOptions options = chaos_base(20'000.0);
  options.admission.shed_backlog_seconds = 0.5;
  options.admission.degrade_backlog_seconds = 0.1;
  const EventRunResult r = run_one_event(
      PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
      setup.params(), 2, workload::SplitStrategy::kRoundRobin, options);
  EXPECT_EQ(r.replay.combined.queries,
            static_cast<std::int64_t>(setup.trace().queries.size()));
  // The server counts every rejected *delivery* (retransmits of a shed
  // query get shed again); each cache counts one reject per completed
  // query — so served rejections dominate completed ones.
  EXPECT_GT(r.chaos.shed_replies, 0);
  EXPECT_GE(r.chaos.shed_queries, r.chaos.shed_replies);
  EXPECT_EQ(r.chaos.faults_dropped, 0);  // no fault plan in this scenario
}

// Policy-side degradation: with objects cheap enough that VCover caches
// the hot set, a flash crowd pressures the uplink and the admission
// controller's second lever fires — cached queries are answered as-is
// (stale but within t(q) plus the configured overload slack) instead of
// pushing cover traffic onto the congested link. Degraded answers still
// count as completed queries.
TEST(ChaosEngineTest, OverloadDegradesCachedQueriesWithinTolerance) {
  SetupParams params = chaos_params();
  params.total_rows = 400;  // tens-of-KB objects: loading pays off fast
  const World setup{params};
  EventEngineOptions options = chaos_base(20'000.0);
  options.admission.shed_backlog_seconds = 0.5;
  // Pressure = concurrency, not bytes: cached queries put only request
  // overhead on the uplink, so the backlog signal stays near zero even
  // mid-crowd. Outstanding round trips are the honest congestion signal.
  options.admission.degrade_in_flight = 4;
  // Overload slack: degraded answers may omit any outstanding update for
  // the duration of the crowd (the operator's "serve stale, stay up").
  options.admission.degrade_extra_tolerance = 1'000'000'000;
  const EventRunResult r = run_one_event(
      PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
      setup.params(), 2, workload::SplitStrategy::kRoundRobin, options);
  EXPECT_EQ(r.replay.combined.queries,
            static_cast<std::int64_t>(setup.trace().queries.size()));
  EXPECT_GT(r.chaos.degraded_queries, 0);
}

// Update storm: every link drops, duplicates, and reorders, with
// congestion batching coalescing notices on top. The retry budget and the
// two dedup windows keep the books exact: every query accounted, every
// notice applied exactly once (ledger balanced), duplicates suppressed
// rather than double-applied.
// Silent-loss detection: with Replica's local queries and fire-and-forget
// refreshes, a trace can leave the cache with NO request in flight across
// the dark window — nothing times out, so the suspicion/heal path never
// fires. The ledger stamps on live notices close that hole: the first
// post-heal notice exposes the gap in the stream and triggers the resync
// directly, so convergence never depends on a lucky in-flight round trip.
// (This seed reproduced exactly that silent regime before the stamps.)
TEST(ChaosEngineTest, SilentNoticeLossIsDetectedByLedgerGap) {
  const World setup{chaos_params(/*seed=*/7)};
  const double rate = 200.0;
  const double duration =
      static_cast<double>(setup.trace().order.size()) / rate;
  EventEngineOptions options = chaos_base(rate);
  add_partition(options, 2, 0.40 * duration, 0.60 * duration);
  const EventRunResult r = run_one_event(
      PolicyKind::kReplica, setup.trace(), setup.cache_capacity(),
      setup.params(), 2, workload::SplitStrategy::kRoundRobin, options);
  EXPECT_EQ(r.replay.combined.queries,
            static_cast<std::int64_t>(setup.trace().queries.size()));
  EXPECT_GT(r.chaos.partition_dropped, 0);
  EXPECT_GE(r.chaos.resyncs, 1);
  EXPECT_GT(r.chaos.replayed_notices, 0);
  EXPECT_GT(r.chaos.max_recovery_staleness_seconds, 0.0);
  EXPECT_EQ(r.chaos.notices_applied, r.chaos.notices_logged);
}

TEST(ChaosEngineTest, LossyLinksRetryAndDedupKeepBooksExact) {
  const World setup{chaos_params()};
  EventEngineOptions options = chaos_base(2000.0);
  options.fault_plan.enabled = true;
  options.fault_plan.default_faults.drop = 0.02;
  options.fault_plan.default_faults.duplicate = 0.02;
  options.fault_plan.default_faults.reorder = 0.05;
  options.notice_batching.enabled = true;
  options.notice_batching.backlog_threshold_seconds = 0.0;
  const EventRunResult r = run_one_event(
      PolicyKind::kReplica, setup.trace(), setup.cache_capacity(),
      setup.params(), 2, workload::SplitStrategy::kRoundRobin, options);
  EXPECT_EQ(r.replay.combined.queries,
            static_cast<std::int64_t>(setup.trace().queries.size()));
  EXPECT_GT(r.chaos.faults_dropped, 0);
  EXPECT_GT(r.chaos.faults_duplicated, 0);
  EXPECT_GT(r.chaos.faults_reordered, 0);
  EXPECT_GT(r.chaos.retries, 0);
  EXPECT_GT(r.chaos.notices_logged, 0);
  EXPECT_EQ(r.chaos.notices_applied, r.chaos.notices_logged);
  EXPECT_GT(r.chaos.duplicate_notices_suppressed +
                r.chaos.request_duplicates_suppressed,
            0);
}

// The deterministic-merge contract survives the fault layer: message
// fates are a pure function of (plan seed, link, per-link seq), so the
// full chaos configuration — partition + lossy links + batching +
// admission — reproduces the sequential run bit-for-bit at any thread
// count.
TEST(ChaosEngineTest, ChaosSuiteBitIdenticalAcrossThreadCounts) {
  const World setup{chaos_params()};
  const double rate = 500.0;
  const double duration =
      static_cast<double>(setup.trace().order.size()) / rate;
  const auto run = [&](std::size_t threads) {
    EventEngineOptions options = chaos_base(rate);
    options.fault_plan.default_faults.drop = 0.01;
    options.fault_plan.default_faults.duplicate = 0.01;
    options.fault_plan.default_faults.reorder = 0.03;
    add_partition(options, 4, 0.40 * duration, 0.60 * duration);
    options.notice_batching.enabled = true;
    options.parallel.num_threads = threads;
    return run_one_event(PolicyKind::kVCover, setup.trace(),
                         setup.cache_capacity(), setup.params(), 4,
                         workload::SplitStrategy::kHashByRegion, options);
  };
  const EventRunResult sequential = run(1);
  EXPECT_GT(sequential.chaos.faults_dropped, 0);
  EXPECT_GT(sequential.chaos.partition_dropped, 0);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "T=" << threads);
    expect_runs_identical(run(threads), sequential);
  }
}

// The golden-table guard: a plan with the fault layer compiled in but
// every probability zero and no partition window never arms
// (faults_active() stays false), so the run — including the inline
// delivery fast path — is byte-identical to one that never saw a plan,
// and every chaos yardstick reads zero.
TEST(ChaosEngineTest, DisabledFaultLayerIsByteIdenticalToBaseline) {
  const World setup{small_params()};
  const auto run = [&](bool install_zero_plan) {
    EventEngineOptions options;  // zero-latency closed loop, protocol off
    if (install_zero_plan) {
      options.fault_plan.enabled = true;  // enabled, but nothing nonzero
    }
    return run_one_event(PolicyKind::kVCover, setup.trace(),
                         setup.cache_capacity(), setup.params(), 2,
                         workload::SplitStrategy::kRoundRobin, options);
  };
  const EventRunResult baseline = run(false);
  const EventRunResult planned = run(true);
  expect_runs_identical(planned, baseline);
  EXPECT_EQ(planned.chaos, ChaosYardsticks{});
}

// Arming the protocol on a clean, uncongested network is inert: no
// timeouts, no retries, no shedding — and the replay counters the golden
// tables are built from do not move.
TEST(ChaosEngineTest, ProtocolOnCleanNetworkIsQuiet) {
  const World setup{small_params()};
  const auto run = [&](bool protocol) {
    EventEngineOptions options;  // zero-latency closed loop
    options.protocol.enabled = protocol;
    options.admission.enabled = protocol;
    return run_one_event(PolicyKind::kVCover, setup.trace(),
                         setup.cache_capacity(), setup.params(), 2,
                         workload::SplitStrategy::kRoundRobin, options);
  };
  const EventRunResult off = run(false);
  const EventRunResult on = run(true);
  EXPECT_EQ(on.replay.combined.queries, off.replay.combined.queries);
  EXPECT_EQ(on.replay.combined.cache_fresh, off.replay.combined.cache_fresh);
  EXPECT_EQ(on.replay.combined.cache_after_updates,
            off.replay.combined.cache_after_updates);
  EXPECT_EQ(on.replay.combined.shipped, off.replay.combined.shipped);
  EXPECT_EQ(on.replay.combined.objects_loaded,
            off.replay.combined.objects_loaded);
  EXPECT_EQ(on.chaos.timeouts, 0);
  EXPECT_EQ(on.chaos.retries, 0);
  EXPECT_EQ(on.chaos.failed_requests, 0);
  EXPECT_EQ(on.chaos.shed_queries, 0);
  EXPECT_EQ(on.chaos.degraded_queries, 0);
  EXPECT_EQ(on.chaos.resyncs, 0);
  // The ledger runs whenever the protocol is armed — and balances.
  EXPECT_GT(on.chaos.notices_logged, 0);
  EXPECT_EQ(on.chaos.notices_applied, on.chaos.notices_logged);
}

}  // namespace
}  // namespace delta::sim
